"""Stage-III revocation game: best-response sweeps and certification."""
from dataclasses import replace

import numpy as np
import pytest

from fedincentives.contract import design_contract
from fedincentives.model import (
    Contract,
    GameConfig,
    Population,
    UserTerms,
    stage3_payoff,
)
from fedincentives.revocation import lower_equilibrium, upper_equilibrium, verify_nash

from conftest import random_cfg, random_types
from game_oracles import all_equilibria, least_equilibrium_oracle


def _manual_setup(rl, xi, losses, theta=None, lam=1.0, q_bar=0.0):
    """Two-or-more user instance with unit data sizes, one type per user.

    Per-user bundles: reward rl_i, privacy cost xi_i * loss_i, externality
    weight theta_i * lam * (1 - q_bar).
    """
    n = len(rl)
    theta = theta if theta is not None else [1.0] * n
    from fedincentives.model import UserTypeSpec

    types = [
        UserTypeSpec(theta=theta[i], xi=xi[i], count=1, p=0.1, q=0.5,
                     loss_mean=0.5, loss_var=0.0)
        for i in range(n)
    ]
    contract = Contract(
        d=np.ones(n), r=np.asarray(rl, dtype=float),
        pi=np.zeros(n), kappa=np.zeros(n), A=np.ones(n), B=np.ones(n),
        order=np.arange(n),
    )
    pop = Population(
        type_idx=np.arange(n),
        loss=np.asarray(losses, dtype=float),
        shapley=np.zeros(n),
    )
    cfg = GameConfig(T=10.0, lam=lam)
    return UserTerms.of(pop, contract, types), cfg, q_bar


def _cascade_instance():
    # u1: rl=10, xi*l*d=8, externality weight 1, l^2=1
    # u2: rl=1,  xi*l*d=2, externality weight 1, l^2=4
    return _manual_setup(rl=[10.0, 1.0], xi=[8.0, 1.0], losses=[1.0, 2.0])


def test_cascade_reaches_all_revoke():
    terms, cfg, q_bar = _cascade_instance()
    low = lower_equilibrium(terms, cfg, q_bar)
    assert low.x.tolist() == [True, True]
    assert low.converged_from == "all-zero"
    # sweep 1 flips u2 only, sweep 2 flips u1, sweep 3 confirms
    assert low.iterations == 3
    up = upper_equilibrium(terms, cfg, q_bar)
    assert up.x.tolist() == [True, True]
    eqs = all_equilibria(terms, cfg, q_bar)
    assert len(eqs) == 1


def test_cascade_profile_payoffs_enumerated():
    """strategic-complement structure visible in raw payoffs: u1 prefers to
    stay alone but follows once u2 leaves."""
    terms, cfg, q_bar = _cascade_instance()
    theta_d_T = 1.0 * 1.0 * cfg.T
    payoff = lambda i, x: stage3_payoff(i, np.asarray(x, bool), terms, cfg, q_bar)
    assert payoff(0, [True, False]) == pytest.approx(-theta_d_T)
    assert payoff(0, [True, True]) == pytest.approx(-theta_d_T)
    assert payoff(0, [False, False]) == pytest.approx(10.0 - theta_d_T - 8.0)
    assert payoff(0, [False, True]) == pytest.approx(10.0 - theta_d_T - 8.0 - 4.0)
    assert payoff(1, [False, False]) == pytest.approx(1.0 - theta_d_T - 2.0)


def test_no_profitable_first_flip_stays_all_zero():
    terms, cfg, q_bar = _manual_setup(
        rl=[30.0, 30.0], xi=[8.0, 1.0], losses=[1.0, 2.0]
    )
    low = lower_equilibrium(terms, cfg, q_bar)
    assert not low.x.any()
    assert low.iterations == 1
    up = upper_equilibrium(terms, cfg, q_bar)
    assert not up.x.any()


def test_lambda_zero_decouples(rng):
    for _ in range(50):
        types = random_types(rng, J=3)
        cfg = GameConfig(T=float(rng.uniform(20, 100)), lam=0.0)
        contract = design_contract(types, cfg)
        n = 30
        pop = Population(
            type_idx=rng.integers(0, 3, size=n),
            loss=rng.uniform(0.0, 1.0, size=n),
            shapley=np.zeros(n),
        )
        terms = UserTerms.of(pop, contract, types)
        low = lower_equilibrium(terms, cfg, 0.5)
        up = upper_equilibrium(terms, cfg, 0.5)
        assert np.array_equal(low.x, up.x)
        for i in range(n):
            t = types[pop.type_idx[i]]
            d, r = (a[pop.type_idx[i]] for a in contract.per_type())
            assert low.x[i] == (r < t.xi * pop.loss[i] * d)


def test_coordination_instance_upper_differs():
    # each user stays iff the other stays: staying margin +1/+3 with no
    # revokers, -1/-1 once the other has revoked
    terms, cfg, q_bar = _manual_setup(
        rl=[5.0, 5.0], xi=[4.0, 1.0], losses=[1.0, 2.0],
        theta=[0.5, 4.0],
    )
    low = lower_equilibrium(terms, cfg, q_bar)
    up = upper_equilibrium(terms, cfg, q_bar)
    assert not low.x.any()
    assert up.x.all()
    assert verify_nash(low.x, terms, cfg, q_bar)
    assert verify_nash(up.x, terms, cfg, q_bar)
    assert not verify_nash(np.array([True, False]), terms, cfg, q_bar)


def test_verify_nash_rejects_all_zero_in_cascade():
    terms, cfg, q_bar = _cascade_instance()
    assert not verify_nash(np.array([False, False]), terms, cfg, q_bar)


def test_single_user_threshold_rule():
    for rl, expect in ((0.5, True), (2.0, False), (1.0, False)):  # tie stays
        terms, cfg, q_bar = _manual_setup(
            rl=[rl], xi=[1.0], losses=[1.0]
        )
        low = lower_equilibrium(terms, cfg, q_bar)
        assert bool(low.x[0]) is expect
        assert verify_nash(low.x, terms, cfg, q_bar)


def _random_instance(rng, n):
    J = int(rng.integers(1, 4))
    types = random_types(rng, J=J)
    cfg = random_cfg(rng)
    # push lam up so externality cascades actually occur
    cfg = GameConfig(T=cfg.T, lam=float(rng.uniform(0.0, 0.3)), rho=cfg.rho,
                     gamma=cfg.gamma)
    contract = design_contract(types, cfg)
    pop = Population(
        type_idx=rng.integers(0, J, size=n),
        loss=rng.uniform(0.0, 1.0, size=n),
        shapley=np.zeros(n),
    )
    # rescale rewards downward so revocation is nontrivial in a decent share
    shrink = float(rng.uniform(0.3, 1.0))
    contract = replace(contract, r=contract.r * shrink)
    q_bar = float(rng.uniform(0.0, 1.0))
    return UserTerms.of(pop, contract, types), cfg, q_bar


def test_lower_equilibrium_certified_on_random_instances(rng):
    some_revoke = 0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        terms, cfg, q_bar = _random_instance(rng, n)
        low = lower_equilibrium(terms, cfg, q_bar)
        assert verify_nash(low.x, terms, cfg, q_bar)
        assert low.iterations <= n + 1
        some_revoke += int(low.x.any())
    assert some_revoke > 100  # the family is not degenerate


def test_lower_matches_exhaustive_least_ne(rng):
    for _ in range(300):
        n = int(rng.integers(1, 13))
        terms, cfg, q_bar = _random_instance(rng, n)
        low = lower_equilibrium(terms, cfg, q_bar)
        oracle = least_equilibrium_oracle(terms, cfg, q_bar)
        assert np.array_equal(low.x, oracle)


def test_lower_subset_of_upper(rng):
    for _ in range(200):
        n = int(rng.integers(1, 40))
        terms, cfg, q_bar = _random_instance(rng, n)
        low = lower_equilibrium(terms, cfg, q_bar)
        up = upper_equilibrium(terms, cfg, q_bar)
        assert not np.any(low.x & ~up.x)


def test_monotone_in_lambda_and_qbar(rng):
    """More unlearning burden or less anticipated retention -> weakly more
    revokers at the least equilibrium."""
    for _ in range(60):
        n = int(rng.integers(2, 30))
        terms, cfg, q_bar = _random_instance(rng, n)
        lams = sorted(rng.uniform(0.0, 0.5, size=3))
        prev = None
        for lam in lams:
            c = GameConfig(T=cfg.T, lam=lam, rho=cfg.rho, gamma=cfg.gamma)
            x = lower_equilibrium(terms, c, q_bar).x
            if prev is not None:
                assert not np.any(prev & ~x)
            prev = x
        qs = sorted(rng.uniform(0.0, 1.0, size=3), reverse=True)
        prev = None
        for q in qs:
            x = lower_equilibrium(terms, cfg, q).x
            if prev is not None:
                assert not np.any(prev & ~x)
            prev = x


@pytest.mark.parametrize("field, rises", [("r", False), ("xi", True), ("loss", True)])
def test_equilibria_grow_with_one_users_cost(rng, field, rises):
    """Monotone comparative statics (Topkis 1998): when one user's reward
    falls, or their xi or loss rises, the least and the greatest equilibrium
    weakly grow as sets.  Users with high costs and large losses leave."""
    grew = 0
    for _ in range(150):
        n = int(rng.integers(2, 30))
        terms, cfg, q_bar = _random_instance(rng, n)
        i = int(rng.integers(n))
        values = getattr(terms, field).copy()
        step = float(rng.uniform(0.05, 0.9))
        values[i] *= 1.0 + step if rises else 1.0 - step
        moved = replace(terms, **{field: values})
        for solve in (lower_equilibrium, upper_equilibrium):
            before = solve(terms, cfg, q_bar).x
            after = solve(moved, cfg, q_bar).x
            # the inclusion says nothing unless both profiles are equilibria
            assert verify_nash(after, moved, cfg, q_bar)
            assert not np.any(before & ~after)
            grew += int(np.any(after & ~before))
    assert grew > 10  # the perturbations are not all idle


def test_all_equilibria_rejects_large():
    terms, cfg, q_bar = _manual_setup(
        rl=[1.0] * 17, xi=[1.0] * 17, losses=[0.5] * 17
    )
    with pytest.raises(ValueError):
        all_equilibria(terms, cfg, q_bar)
