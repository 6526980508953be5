"""The per-type contract view and the one stay-margin formula, against
brute-force lookups and scalar re-derivations."""
import numpy as np
import pytest

from fedincentives.contract import design_contract
from fedincentives.experiments import _realized_payoffs
from fedincentives.model import Population, UserTerms, stage3_payoff, stage4_realized_cost
from fedincentives.retention import retention_incentives

from conftest import random_cfg, random_types


@pytest.mark.parametrize(
    "seed, J, tied",
    [(0, 1, False), (1, 2, False), (2, 5, False), (3, 7, False), (4, 3, True), (5, 6, True)],
)
def test_per_type_view_and_stay_margin_oracle(seed, J, tied):
    rng = np.random.default_rng(seed)
    types = random_types(rng, J=J, count_hi=6)
    if tied:
        # equal types share pi, so the stable sort keeps their input order
        types[J // 2 :] = [types[0]] * (J - J // 2)
    types = [types[k] for k in rng.permutation(J)]
    cfg = random_cfg(rng)
    contract = design_contract(types, cfg)

    d_of, r_of = contract.per_type()
    for t in range(J):
        item = contract.items[contract.order.index(t)]
        assert (d_of[t], r_of[t]) == (item.d, item.r_learn)

    n = sum(t.count for t in types)
    pop = Population(
        type_idx=rng.integers(0, J, size=n),
        loss=rng.uniform(0.0, 1.0, size=n),
        shapley=np.zeros(n),
    )
    pop.revoke = rng.uniform(size=n) < 0.5
    revokers = np.flatnonzero(pop.revoke)
    retained = revokers[rng.uniform(size=len(revokers)) < 0.5]
    pop.retained[retained] = True
    leavers = pop.revoke & ~pop.retained
    leave_mass = float(np.sum(pop.loss[leavers] ** 2))

    # stage-4 rewards: the user-order loop the running sum replaced
    rewards = 0.0
    for i in np.flatnonzero(~pop.revoke | pop.retained):
        rewards += contract.items[contract.order.index(pop.type_idx[i])].r_learn
    terms = UserTerms.of(pop, contract, types)
    _, parts = stage4_realized_cost(pop, terms, cfg)
    assert parts["learning_rewards"] == rewards * cfg.gamma

    # realized payoffs are Stage-III payoffs at x = the final leavers, q_bar = 0
    payoffs = _realized_payoffs(pop, terms, cfg)
    for i in np.flatnonzero(~pop.retained):
        assert payoffs[i] == stage3_payoff(i, leavers, terms, cfg, 0.0)

    # the retention payment is minus the stay margin at the final leaver mass
    incentives = retention_incentives(retained, revokers, pop, terms, cfg)
    assert sorted(incentives) == retained.tolist()
    for i in retained:
        t = types[pop.type_idx[i]]
        item = contract.items[contract.order.index(pop.type_idx[i])]
        margin = (
            item.r_learn
            - t.xi * pop.loss[i] * item.d
            - t.theta * item.d * cfg.lam * leave_mass
        )
        assert incentives[int(i)] == -margin
