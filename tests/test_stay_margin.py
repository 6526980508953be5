"""The per-type contract view and the one stay-margin formula, against
brute-force lookups and scalar re-derivations."""
import numpy as np
import pytest

from fedincentives.contract import design_contract
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
    position = contract.order.tolist().index
    for t in range(J):
        assert (d_of[t], r_of[t]) == (contract.d[position(t)], contract.r[position(t)])

    n = sum(t.count for t in types)
    pop = Population(
        type_idx=rng.integers(0, J, size=n),
        loss=rng.uniform(0.0, 1.0, size=n),
        shapley=np.zeros(n),
    )
    revoke = rng.uniform(size=n) < 0.5
    revokers = np.flatnonzero(revoke)
    retained = revokers[rng.uniform(size=len(revokers)) < 0.5]
    kept = np.zeros(n, dtype=bool)
    kept[retained] = True
    leavers = revoke & ~kept
    leave_mass = float(np.sum(pop.loss[leavers] ** 2))

    # stage-4 rewards: the user-order loop the running sum replaced
    rewards = 0.0
    for i in np.flatnonzero(~revoke | kept):
        rewards += contract.r[position(pop.type_idx[i])]
    terms = UserTerms.of(pop, contract, types)
    _, parts = stage4_realized_cost(pop, terms, cfg, revoke, kept)
    assert parts["learning_rewards"] == rewards * cfg.gamma

    # realized payoffs are Stage-III payoffs at x = the final leavers, q_bar = 0
    payoffs = terms.payoffs(revoke, leave_mass, cfg)
    for i in np.flatnonzero(~kept):
        assert payoffs[i] == stage3_payoff(i, leavers, terms, cfg, 0.0)
    # and, per user, the sunk training cost or the reward net of every cost
    for i in range(n):
        t = types[pop.type_idx[i]]
        k = position(pop.type_idx[i])
        d, r = contract.d[k], contract.r[k]
        sunk = t.theta * d * cfg.T
        stay = r - sunk - t.xi * pop.loss[i] * d - t.theta * d * cfg.lam * leave_mass
        assert payoffs[i] == (-sunk if revoke[i] else stay)

    # the retention payment is minus the stay margin at the final leaver mass
    incentives = retention_incentives(retained, revokers, pop, terms, cfg)
    assert len(incentives) == len(retained)
    for i, ru in zip(retained, incentives):
        t = types[pop.type_idx[i]]
        k = position(pop.type_idx[i])
        d, r = contract.d[k], contract.r[k]
        margin = r - t.xi * pop.loss[i] * d - t.theta * d * cfg.lam * leave_mass
        assert ru == -margin
