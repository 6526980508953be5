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
)
from fedincentives.revocation import lower_equilibrium, upper_equilibrium, verify_nash

from conftest import random_cfg, random_types
from game_oracles import (
    all_equilibria,
    least_equilibrium_oracle,
    stage3_payoff,
    sweep_profile_oracle,
)


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


def _oracle_instance(rng):
    """Random terms for the sweep oracle, built directly: a tenth hold one
    user, a fifth of the users have zero loss, lambda = 0 and q_bar = 1 each
    come up about once in seven draws, and about a third of the instances
    repeat some users."""
    n = 1 if rng.uniform() < 0.1 else int(rng.integers(2, 80))
    loss = rng.uniform(0.0, 1.0, size=n)
    loss[rng.uniform(size=n) < 0.2] = 0.0
    theta = rng.uniform(0.5, 10.0, size=n)
    d = rng.uniform(0.5, 2.0, size=n)
    xi = rng.uniform(1.0, 20.0, size=n)
    lam = 0.0 if rng.uniform() < 0.15 else float(rng.uniform(0.0, 0.5))
    q_bar = 1.0 if rng.uniform() < 0.15 else float(rng.uniform(0.0, 1.0))
    # rewards around the privacy cost plus a share of the burden everyone
    # else could impose, so that revocations cascade
    reach = theta * d * lam * (1.0 - q_bar) * float(np.sum(loss ** 2))
    r = xi * loss * d * rng.uniform(0.9, 1.1, size=n) + reach * rng.uniform(-0.1, 0.6, size=n)
    terms = UserTerms(d=d, r=r, theta=theta, xi=xi, loss=loss)
    if rng.uniform() < 0.3:
        terms = terms.take(np.sort(rng.integers(0, n, size=n + int(rng.integers(1, 10)))))
    return terms, GameConfig(T=50.0, lam=lam), q_bar


def _tied_instance(rng):
    """Dyadic terms, where every product and sum below is exact, with one
    stayer of the least equilibrium given the reward that makes their stay
    margin exactly 0.0 at the settled mass.  Lowering a stayer's reward to
    that tie moves no sweep before it, so the profile stays put; returns
    None when nobody stays."""
    n = int(rng.integers(2, 30))
    loss = rng.choice([0.0, 0.5, 1.0], size=n)
    d = rng.choice([1.0, 2.0], size=n)
    theta = rng.choice([1.0, 2.0, 4.0], size=n)
    xi = rng.integers(1, 9, size=n).astype(float)
    r = xi * loss * d + 0.25 * rng.integers(-2, 12, size=n)
    cfg, q_bar = GameConfig(T=50.0, lam=0.25), 0.5
    low = sweep_profile_oracle(UserTerms(d=d, r=r, theta=theta, xi=xi, loss=loss), cfg, q_bar,
                               start_high=False)
    stayers = np.flatnonzero(~low.x)
    if len(stayers) == 0:
        return None
    i = int(rng.choice(stayers))
    mass = float(np.sum(loss[low.x] ** 2))
    w = theta[i] * d[i] * cfg.lam * (1.0 - q_bar)
    r[i] = xi[i] * loss[i] * d[i] + w * mass
    assert r[i] - xi[i] * loss[i] * d[i] - w * mass == 0.0
    terms = UserTerms(d=d, r=r, theta=theta, xi=xi, loss=loss)
    assert np.array_equal(sweep_profile_oracle(terms, cfg, q_bar, start_high=False).x, low.x)
    return terms, cfg, q_bar


def _near_tied(terms, cfg, q_bar, rng):
    """The terms with up to three stayers of the least equilibrium given the
    reward xi l d + w * mass at its settled mass, rounded as floats: their
    margins land on 0.0 or a rounding away from it, where the grouping of
    the margin decides who revokes."""
    low = sweep_profile_oracle(terms, cfg, q_bar, start_high=False)
    stayers = np.flatnonzero(~low.x)
    pick = rng.choice(stayers, size=min(3, len(stayers)), replace=False)
    w = terms.theta * terms.d * cfg.lam * (1.0 - q_bar)
    r = terms.r.copy()
    r[pick] = (terms.xi * terms.loss * terms.d + w * float(np.sum(terms.loss[low.x] ** 2)))[pick]
    return replace(terms, r=r)


def test_exact_tie_stays_in_both_directions():
    # u0 stays at margin 2 - 1 - 1 * 1 = 0.0 once u1 (margin -0.5) revokes
    terms, cfg, q_bar = _manual_setup(rl=[2.0, 0.5], xi=[1.0, 1.0], losses=[1.0, 1.0])
    for solve in (lower_equilibrium, upper_equilibrium):
        profile = solve(terms, cfg, q_bar)
        assert profile.x.tolist() == [False, True]
        assert profile.iterations == 2


def test_sweeps_match_the_pre_hoist_oracle(rng):
    """Both sweep directions, with the margin's fixed part formed once per
    call, settle where the sweeps that form the whole margin every time
    settle, after as many sweeps: on an all-stay instance, on a cascade
    where each ascent sweep adds one revoker, on random instances, on the
    same with stayers moved to the edge of revoking, and on exact ties."""
    # user k revokes once k others have (margin k + 0.5 - 1 - mass); the
    # last user never does, so the ascent takes 6 adding sweeps and 1 more
    cascade = _manual_setup(rl=[k + 0.5 for k in range(6)] + [50.0], xi=[1.0] * 7,
                            losses=[1.0] * 7)
    all_stay = _manual_setup(rl=[5.0, 4.0, 3.0], xi=[1.0] * 3, losses=[1.0] * 3)
    for drawn, revokers, sweeps in ((all_stay, 0, 1), (cascade, 6, 7)):
        for solve, start_high in ((lower_equilibrium, False), (upper_equilibrium, True)):
            oracle = sweep_profile_oracle(*drawn, start_high)
            profile = solve(*drawn)
            assert np.array_equal(profile.x, oracle.x)
            assert profile.iterations == oracle.iterations
        low = lower_equilibrium(*drawn)
        assert (int(low.x.sum()), low.iterations) == (revokers, sweeps)
    seen = {"cascade": 0, "descent": 0, "one user": 0, "lambda 0": 0, "q_bar 1": 0,
            "zero loss": 0, "duplicates": 0, "tie": 0}
    for k in range(900):
        if k % 3 == 2:
            drawn = _tied_instance(rng)
            if drawn is None:
                continue
            seen["tie"] += 1
        else:
            drawn = _oracle_instance(rng)
        terms, cfg, q_bar = drawn
        if k % 3 == 1:
            terms = _near_tied(terms, cfg, q_bar, rng)
        for solve, start_high in ((lower_equilibrium, False), (upper_equilibrium, True)):
            oracle = sweep_profile_oracle(terms, cfg, q_bar, start_high)
            profile = solve(terms, cfg, q_bar)
            assert np.array_equal(profile.x, oracle.x)
            assert profile.iterations == oracle.iterations
        seen["cascade"] += int(lower_equilibrium(terms, cfg, q_bar).iterations >= 3)
        seen["descent"] += int(upper_equilibrium(terms, cfg, q_bar).iterations >= 3)
        seen["one user"] += int(len(terms.loss) == 1)
        seen["lambda 0"] += int(cfg.lam == 0.0)
        seen["q_bar 1"] += int(q_bar == 1.0)
        seen["zero loss"] += int(np.any(terms.loss == 0.0))
        seen["duplicates"] += int(k % 3 != 2 and len(np.unique(terms.r)) < len(terms.r))
    assert min(seen.values()) >= 20, seen


def test_ascent_keeps_a_revoker_whose_join_lowers_the_mass():
    """np.sum's rounding depends on where the summands sit, so a zero-loss
    revoker that joins between positive-loss ones can lower the leavers'
    squared-loss mass by an ulp.  A zero-loss user whose reward is that lower
    mass M2 revokes at the mass M1 without them (margin M2 - M1 < 0), and at
    M2 their margin is 0.0: the ascent keeps them revoking, since a revoker
    never returns, and settles."""
    rng = np.random.default_rng(11)
    m = 10
    n = 2 * m - 1
    for _ in range(200):
        # positive losses at even ids, zero-loss users between them
        loss = np.zeros(n)
        loss[::2] = rng.uniform(0.1, 1.0, size=m)
        first = loss > 0.0
        mass_first = float((loss ** 2)[first].sum())
        joins = [k for k in range(1, n, 2)
                 if float((loss ** 2)[first | (np.arange(n) == k)].sum()) < mass_first]
        if joins:
            break
    else:
        pytest.fail("no draw where a zero-loss join lowers the mass")
    k = joins[0]
    final = first.copy()
    final[k] = True
    mass_final = float((loss ** 2)[final].sum())
    # theta = d = lam = 1 and q_bar = 0, so w = 1; positive-loss users have
    # r = 0 < xi l d and revoke at mass 0; the other zero-loss users never do
    r = np.where(first, 0.0, 100.0)
    r[k] = mass_final
    ones = np.ones(n)
    terms = UserTerms(d=ones, r=r, theta=ones, xi=ones, loss=loss)
    cfg = GameConfig(T=50.0, lam=1.0)
    assert mass_final - mass_first < 0.0
    low = lower_equilibrium(terms, cfg, 0.0)
    assert np.array_equal(low.x, final)
    assert low.iterations == 3
    assert verify_nash(low.x, terms, cfg, 0.0)
