"""The per-type contract view and the one stay-margin formula, against
brute-force lookups and scalar re-derivations."""
from dataclasses import replace

import numpy as np
import pytest

from fedincentives.contract import design_contract
from fedincentives.model import (
    GameConfig,
    Population,
    UserTerms,
    stage4_realized_cost,
)
from fedincentives.retention import retention_incentives

from conftest import random_cfg, random_types
from game_oracles import stage3_payoff


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
    _, parts = stage4_realized_cost(pop, terms, cfg, revoke, kept, np.zeros(n))
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


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def test_stage3_payoff_is_the_payoff_vector_entry(rng):
    """stage3_payoff plays one user's 0-d terms through UserTerms.payoffs at
    the burden the revokers x are expected to leave, so it equals that
    entry of the payoff vector bit for bit, for revokers and stayers."""
    for k in range(60):
        types = random_types(rng, J=int(rng.integers(1, 5)))
        cfg = GameConfig(T=float(rng.uniform(20, 100)), lam=float(rng.uniform(0.0, 0.3)))
        contract = design_contract(types, cfg)
        n = int(rng.integers(1, 40))
        pop = Population(
            type_idx=rng.integers(0, len(types), size=n),
            loss=rng.uniform(0.0, 1.0, size=n) * (rng.uniform(size=n) < 0.8),
            shapley=np.zeros(n),
        )
        x = rng.uniform(size=n) < rng.uniform()
        q_bar = (0.0, 1.0, float(rng.uniform()))[k % 3]
        terms = UserTerms.of(pop, contract, types)
        # once before the products are formed on the whole terms, then after
        first = stage3_payoff(0, x, terms, cfg, q_bar)
        burden = (1.0 - q_bar) * float(np.sum(pop.loss[x] ** 2))
        payoffs = terms.payoffs(x, burden, cfg)
        assert _bits(first) == _bits(payoffs[0])
        for i in range(n):
            assert _bits(stage3_payoff(i, x, terms, cfg, q_bar)) == _bits(payoffs[i])


def test_user_terms_products_follow_their_fields(rng):
    """l2, theta_d and xi_l_d are formed once per terms, on construction:
    take forms them on the taken users with the bits of gathering the formed
    ones, and a replaced field gets products formed from it."""
    n = 50
    terms = UserTerms(*(rng.uniform(0.1, 2.0, size=n) for _ in range(5)))

    def formed(t):
        return t.loss ** 2, t.theta * t.d, t.xi * t.loss * t.d

    def held(t):
        return t.l2, t.theta_d, t.xi_l_d

    for got, want in zip(held(terms), formed(terms)):
        assert got.tobytes() == want.tobytes()
    assert held(terms)[0] is terms.l2  # formed once
    users = rng.integers(0, n, size=20)
    taken = terms.take(users)
    for got, want, whole in zip(held(taken), formed(taken), held(terms)):
        assert got.tobytes() == want.tobytes() == whole[users].tobytes()
    moved = replace(terms, loss=terms.loss * 0.5, theta=terms.theta + 1.0, xi=terms.xi * 3.0)
    for got, want in zip(held(moved), formed(moved)):
        assert got.tobytes() == want.tobytes()
