"""Closed-form cost and payoff formulas."""
from dataclasses import replace

import numpy as np
import pytest

from fedincentives.contract import design_contract, optimal_rewards
from fedincentives.model import (
    Contract,
    GameConfig,
    Population,
    TypeRates,
    UserTerms,
    UserTypeSpec,
    stage4_realized_cost,
)
from fedincentives.population import truncated_normal_moments

from conftest import random_cfg, random_types
from game_oracles import retention_objective, stage1_expected_cost, stage3_payoff


def _spec(**kw):
    base = dict(theta=1.0, xi=2.0, count=1, p=0.5, q=0.5, loss_mean=0.5, loss_var=0.0)
    base.update(kw)
    return UserTypeSpec(**base)


def _alpha(types, cfg):
    """Expected unlearning load lam sum_j I_j p_j (1 - q_j) (E[l_j]^2 + Var[l_j])."""
    return cfg.lam * sum(
        t.count * t.p * (1.0 - t.q) * (t.loss_mean ** 2 + t.loss_var) for t in types
    )


def _pi(t, types, cfg):
    """Aggregated marginal cost xi E[l] + theta T / (1 - p) + theta alpha."""
    return t.xi * t.loss_mean + t.theta * cfg.T / (1.0 - t.p) + t.theta * _alpha(types, cfg)


def test_aggregated_marginal_cost_worked_example():
    cfg = GameConfig(T=10.0, lam=0.0)
    t = _spec()
    assert TypeRates.of([t], cfg).pi[0] == pytest.approx(21.0)


def test_aggregated_marginal_cost_zero_theta():
    cfg = GameConfig(T=50.0, lam=3.0)
    t = _spec(theta=1e-12, xi=7.0, loss_mean=0.3)
    # theta must be positive, so take a negligible one: the training-cost
    # terms vanish and only the privacy term survives
    assert TypeRates.of([t], cfg).pi[0] == pytest.approx(7.0 * 0.3, rel=1e-9)


def test_aggregated_marginal_cost_p_one_degenerate():
    # a type that always revokes has no cost rate (pi divides by 1 - p), so
    # no such type exists for the rates to meet
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\)"):
        _spec(p=1.0)


def test_kappa_worked_example_and_identity():
    cfg = GameConfig(T=10.0, lam=0.0)
    t = _spec()
    kap = TypeRates.of([t], cfg).kappa[0]
    assert kap == pytest.approx(10.5)
    assert kap / (1.0 - t.p) == pytest.approx(21.0)


def test_kappa_reduces_to_pi_at_p_zero():
    cfg = GameConfig(T=30.0, lam=0.02)
    rates = TypeRates.of([_spec(p=0.0)], cfg)
    assert rates.kappa[0] == pytest.approx(rates.pi[0])


def test_kappa_only_privacy_term():
    cfg = GameConfig(T=1e-12, lam=0.0)
    t = _spec(p=0.0, xi=11.0, loss_mean=0.25)
    # GameConfig refuses T = 0, so use a negligible T instead
    assert TypeRates.of([t], cfg).kappa[0] == pytest.approx(11.0 * 0.25, rel=1e-9)


def test_unlearning_load_examples():
    t = _spec(count=2, p=0.5, q=0.5, loss_mean=1.0, loss_var=0.0)
    assert TypeRates.of([t], GameConfig(lam=4.0)).alpha == pytest.approx(2.0)
    assert TypeRates.of([t], GameConfig(lam=0.0)).alpha == 0.0
    everyone_retained = _spec(count=9, q=1.0)
    assert TypeRates.of([everyone_retained], GameConfig(lam=4.0)).alpha == 0.0


def test_pi_kappa_identity_random(rng):
    for _ in range(300):
        types = random_types(rng)
        cfg = random_cfg(rng)
        rates = TypeRates.of(types, cfg)
        assert rates.alpha == pytest.approx(_alpha(types, cfg), rel=1e-12, abs=0.0)
        for j, t in enumerate(types):
            assert rates.pi[j] == pytest.approx(_pi(t, types, cfg), rel=1e-12)
            assert rates.kappa[j] == pytest.approx((1.0 - t.p) * rates.pi[j], rel=1e-12)
            assert rates.X[j] == pytest.approx(
                rates.alpha * t.theta + t.xi * t.loss_mean, rel=1e-12
            )


def test_take_reorders_every_rate(rng):
    types = random_types(rng, J=5)
    cfg = random_cfg(rng)
    rates = TypeRates.of(types, cfg)
    order = [3, 0, 4, 2, 1]
    taken = rates.take(order)
    assert taken.alpha == rates.alpha
    for name in ("pi", "kappa", "A", "X", "count", "p", "q"):
        assert getattr(taken, name).tolist() == [getattr(rates, name)[i] for i in order]


def test_cost_coefficient_a_worked_example():
    cfg = GameConfig(T=100.0, rho=1.0, lam=0.0)
    t = _spec(count=1000, p=0.0028, q=0.5)
    A, _ = TypeRates.of([t], cfg).cost_coefficients(cfg)
    assert A[0] == pytest.approx(10.0 * (1.0 - 0.0014))


def test_cost_coefficient_a_decreasing_in_t():
    t = _spec(count=100, p=0.1, q=0.5)
    prev = np.inf
    for T in (10.0, 50.0, 250.0):
        cfg = GameConfig(T=T)
        A, _ = TypeRates.of([t], cfg).cost_coefficients(cfg)
        assert A[0] < prev
        prev = A[0]


def test_cost_coefficients_require_sorted_pi():
    cfg = GameConfig(T=100.0, lam=0.0)
    hi = _spec(theta=5.0, xi=2000.0, p=0.0)
    lo = _spec(theta=1.0, xi=100.0, p=0.0)
    with pytest.raises(ValueError):
        TypeRates.of([hi, lo], cfg).cost_coefficients(cfg)


def test_b_single_type_has_no_cross_term():
    cfg = GameConfig(T=100.0)
    t = _spec(count=50, p=0.1)
    _, B = TypeRates.of([t], cfg).cost_coefficients(cfg)
    alpha = _alpha([t], cfg)
    own = cfg.gamma * t.count * (
        t.p * t.q * (alpha * t.theta + t.xi * t.loss_mean) + (1 - t.p) * _pi(t, [t], cfg)
    )
    assert B[0] == pytest.approx(own, rel=1e-12)


def test_stage2_payoff_binding_ir():
    cfg = GameConfig(T=10.0, lam=0.0)
    t = _spec()
    kap = 10.5  # (1 - p) xi E[l] + theta T at lam = 0
    d = 3.0
    payoff = TypeRates.of([t], cfg).payoffs([d], [kap * d / (1.0 - t.p)])
    assert payoff.shape == (1, 1)
    assert payoff[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_stage2_payoff_zero_contract():
    cfg = GameConfig()
    t = _spec()
    assert TypeRates.of([t], cfg).payoffs([1e-300], [0.0])[0, 0] == pytest.approx(0.0)


def test_stage2_payoff_matrix_pairs_every_type_with_every_item(rng):
    """Entry (j, m) is (1 - p_j) r_m - kappa_j d_m, type j taking item m."""
    types = random_types(rng, J=4)
    cfg = random_cfg(rng)
    rates = TypeRates.of(types, cfg)
    d, r = rng.uniform(1.0, 50.0, size=4), rng.uniform(1e3, 1e5, size=4)
    payoffs = rates.payoffs(d, r)
    for j, t in enumerate(types):
        kappa = (1.0 - t.p) * _pi(t, types, cfg)
        for m in range(4):
            assert payoffs[j, m] == pytest.approx((1.0 - t.p) * r[m] - kappa * d[m], rel=1e-9)


def test_stage2_information_rent_two_types(rng):
    """With the closed-form rewards, the low-cost type's expected payoff
    equals (1-p_1)(pi_2 - pi_1) d_2."""
    for _ in range(50):
        types = random_types(rng, J=2)
        cfg = random_cfg(rng)
        c = design_contract(types, cfg)
        t = types[c.order[0]]
        kappa = (1.0 - t.p) * _pi(t, types, cfg)
        payoff = (1.0 - t.p) * c.r[0] - kappa * c.d[0]
        rent = (1.0 - t.p) * (c.pi[1] - c.pi[0]) * c.d[1]
        assert payoff == pytest.approx(rent, rel=1e-9, abs=1e-12)


def _two_user_population():
    pop = Population(
        type_idx=np.array([0, 1]),
        loss=np.array([0.4, 0.8]),
        shapley=np.array([0.0, 0.0]),
    )
    return pop


def test_stage3_revoker_payoff_is_sunk_cost(rng):
    types = [_spec(theta=2.0), _spec(theta=3.0)]
    cfg = GameConfig(T=10.0, lam=1.0)
    contract = design_contract(types, cfg)
    pop = _two_user_population()
    x = np.array([True, False])
    t = types[0]
    d = contract.per_type()[0][0]
    expect = -t.theta * d * cfg.T
    terms = UserTerms.of(pop, contract, types)
    # a revoker's payoff never depends on anyone else
    for other in (False, True):
        x[1] = other
        assert stage3_payoff(0, x, terms, cfg, 0.5) == pytest.approx(expect)


def test_stage3_stayer_with_zero_loss_no_revokers():
    types = [_spec(), _spec(theta=2.0)]
    cfg = GameConfig(T=10.0, lam=1.0)
    contract = design_contract(types, cfg)
    pop = _two_user_population()
    pop.loss[0] = 0.0
    x = np.array([False, False])
    t = types[0]
    d, r = (a[0] for a in contract.per_type())
    terms = UserTerms.of(pop, contract, types)
    assert stage3_payoff(0, x, terms, cfg, 0.5) == pytest.approx(r - t.theta * d * cfg.T)


def test_stage1_identity_with_closed_form_rewards(rng):
    """Expected cost of the full contract collapses to sum(A/d + B d)."""
    for _ in range(1000):
        types = random_types(rng, count_hi=500)
        cfg = random_cfg(rng)
        c = design_contract(types, cfg)
        srt = [types[i] for i in c.order]
        direct = stage1_expected_cost(c, srt, cfg)
        reduced = float(np.sum(c.A / c.d) + np.sum(c.B * c.d))
        assert direct == pytest.approx(reduced, rel=1e-9)


def test_stage1_identity_for_any_monotone_d(rng):
    """The identity does not rely on the optimizer's d, only on the rewards."""
    for _ in range(200):
        types = random_types(rng)
        cfg = random_cfg(rng)
        pis = sorted(range(len(types)), key=lambda i: _pi(types[i], types, cfg))
        srt = [types[i] for i in pis]
        rates = TypeRates.of(srt, cfg)
        A, B = rates.cost_coefficients(cfg)
        d = np.sort(rng.uniform(1.0, 500.0, size=len(types)))[::-1]
        c = Contract(
            d=d,
            r=np.array(optimal_rewards(d, rates.pi)),
            pi=rates.pi,
            kappa=rates.kappa,
            A=A,
            B=B,
            order=np.array(pis),
        )
        direct = stage1_expected_cost(c, srt, cfg)
        reduced = float(np.sum(A / d) + np.sum(B * d))
        assert direct == pytest.approx(reduced, rel=1e-9)


def test_stage1_single_type_minimum_value():
    cfg = GameConfig(T=80.0, lam=0.01)
    t = _spec(count=40, p=0.05)
    c = design_contract([t], cfg)
    A, B = c.A[0], c.B[0]
    assert c.d[0] == pytest.approx(np.sqrt(A / B), rel=1e-12)
    assert stage1_expected_cost(c, [t], cfg) == pytest.approx(2.0 * np.sqrt(A * B), rel=1e-9)


def test_stage4_no_revokers():
    types = [_spec(), _spec(theta=2.0)]
    cfg = GameConfig(T=10.0)
    contract = design_contract(types, cfg)
    pop = replace(_two_user_population(), shapley=np.array([0.3, -0.1]))
    none = np.zeros(2, dtype=bool)
    total, parts = stage4_realized_cost(
        pop, UserTerms.of(pop, contract, types), cfg, none, none, np.zeros(2)
    )
    rl = sum(contract.per_type()[1][i] for i in (0, 1))
    assert total == pytest.approx(0.2 + cfg.gamma * rl)
    assert parts["retention_rewards"] == 0.0
    assert parts["accuracy"] + parts["learning_rewards"] + parts["retention_rewards"] == pytest.approx(total, rel=1e-12)


def test_stage4_empty_population():
    types = [_spec()]
    cfg = GameConfig()
    contract = design_contract(types, cfg)
    pop = Population(type_idx=np.array([], dtype=int), loss=np.array([]), shapley=np.array([]))
    none = np.zeros(0, dtype=bool)
    total, _ = stage4_realized_cost(
        pop, UserTerms.of(pop, contract, types), cfg, none, none, np.zeros(0)
    )
    assert total == 0.0


def test_stage4_difference_equals_retention_objective(rng):
    """Retaining S instead of nobody shifts the realized cost by exactly the
    retention objective of S."""
    from fedincentives.retention import retention_incentives

    types = random_types(rng, J=3)
    cfg = GameConfig(T=50.0, lam=0.05, gamma=1e-4)
    contract = design_contract(types, cfg)
    n = 12
    pop = Population(
        type_idx=rng.integers(0, 3, size=n),
        loss=rng.uniform(0.1, 0.9, size=n),
        shapley=rng.normal(0.0, 1.0, size=n),
    )
    revoke = np.zeros(n, dtype=bool)
    revoke[[2, 5, 7, 9]] = True
    revokers = np.flatnonzero(revoke)
    terms = UserTerms.of(pop, contract, types)
    base, _ = stage4_realized_cost(pop, terms, cfg, revoke, np.zeros(n, dtype=bool), np.zeros(n))
    for subset in ([], [5], [2, 9], [2, 5, 7, 9]):
        retained = np.zeros(n, dtype=bool)
        retained[subset] = True
        vec = np.zeros(n)
        vec[subset] = retention_incentives(subset, revokers, pop, terms, cfg)
        total, _ = stage4_realized_cost(pop, terms, cfg, revoke, retained, vec)
        f = retention_objective(subset, revokers, pop, terms, cfg)
        assert total - base == pytest.approx(f, rel=1e-9, abs=1e-12)


def test_operations_are_pure(rng):
    types = random_types(rng, J=3)
    cfg = random_cfg(rng)
    r1, r2 = TypeRates.of(types, cfg), TypeRates.of(types, cfg)
    assert r1.pi.tolist() == r2.pi.tolist() and r1.kappa.tolist() == r2.kappa.tolist()
    c1 = design_contract(types, cfg)
    c2 = design_contract(types, cfg)
    assert c1.d.tolist() == c2.d.tolist()
    assert c1.r.tolist() == c2.r.tolist()


def test_truncated_moments_symmetry():
    mean, var = truncated_normal_moments(0.5, 0.2, 0.0, 1.0)
    assert mean == pytest.approx(0.5, abs=1e-12)
    assert 0.0 < var < 0.04


def test_truncated_moments_monte_carlo_oracle():
    mean, var = truncated_normal_moments(0.5, 0.2, 0.0, 1.0)
    rng = np.random.default_rng(123)
    draws = rng.normal(0.5, 0.2, size=4_000_000)
    draws = draws[(draws >= 0.0) & (draws <= 1.0)][:1_000_000]
    se_mean = draws.std() / np.sqrt(len(draws))
    assert abs(draws.mean() - mean) < 3 * se_mean
    # variance standard error for near-normal data
    se_var = draws.var() * np.sqrt(2.0 / len(draws))
    assert abs(draws.var() - var) < 5 * se_var


def test_truncated_moments_wide_limit():
    for lo, hi in ((-100.0, 100.0), (-np.inf, np.inf)):
        mean, var = truncated_normal_moments(2.0, 0.3, lo, hi)
        assert mean == pytest.approx(2.0, abs=1e-12)
        assert var == pytest.approx(0.09, rel=1e-9)


_MOMENT_GRID = [
    (mu, sigma)
    for mu in (-3.0, -1.5, -0.4, -0.1, 0.0, 0.2, 0.5, 0.75, 1.0, 1.1, 1.6, 2.5, 4.0)
    for sigma in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
    if 0.0 <= mu <= 1.0 or max(abs(mu), abs(1.0 - mu)) <= 8.0 * sigma
]


@pytest.mark.parametrize("mu,sigma", _MOMENT_GRID)
def test_truncated_moments_scipy_oracle(mu, sigma):
    """Closed-form moments against scipy's truncnorm on [0, 1]: 1e-12
    relative when the interval holds mu, else (both bounds within 8 sigma)
    1e-11 on the mean and 1e-9 on the variance."""
    from scipy import stats
    a, b = (0.0 - mu) / sigma, (1.0 - mu) / sigma
    ref_mean, ref_var = stats.truncnorm.stats(a, b, loc=mu, scale=sigma, moments="mv")
    mean, var = truncated_normal_moments(mu, sigma, 0.0, 1.0)
    mean_tol, var_tol = (1e-12, 1e-12) if 0.0 <= mu <= 1.0 else (1e-11, 1e-9)
    assert mean == pytest.approx(float(ref_mean), rel=mean_tol, abs=0.0)
    assert var == pytest.approx(float(ref_var), rel=var_tol, abs=0.0)


def test_truncated_moments_errors():
    with pytest.raises(ValueError):
        truncated_normal_moments(0.5, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        truncated_normal_moments(0.5, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        truncated_normal_moments(0.5, 0.2, 1.0, 1.0)
    # no representable normal mass on [0, 1], on either side of it
    with pytest.raises(ValueError):
        truncated_normal_moments(-3.0, 0.01, 0.0, 1.0)
    with pytest.raises(ValueError):
        truncated_normal_moments(4.0, 0.01, 0.0, 1.0)


def test_type_spec_validation():
    cases = [("theta", -1.0), ("count", 0), ("p", 1.0), ("q", 1.5), ("loss_var", -0.1)]
    cases += [
        (key, v) for key in ("theta", "xi", "loss_mean", "loss_var") for v in (np.nan, np.inf)
    ]
    for key, value in cases:
        with pytest.raises(ValueError, match=f"^{key} must"):
            _spec(**{key: value})
    # replace builds a new record, so it checks the rules again
    with pytest.raises(ValueError, match="^p must"):
        replace(_spec(), p=1.0)


def test_game_config_validation():
    cases = [("T", 0.0), ("tol", 1e-2), ("gamma", 0.0)]
    cases += [(key, v) for key in ("T", "lam", "rho", "gamma") for v in (np.nan, np.inf)]
    for key, value in cases:
        with pytest.raises(ValueError, match=f"^{key} must"):
            GameConfig(**{key: value})
    with pytest.raises(ValueError, match="^T must"):
        replace(GameConfig(), T=0.0)


def test_contract_validation_catches_bad_menus():
    types = [_spec(), _spec(theta=4.0)]
    cfg = GameConfig(T=10.0)
    c = design_contract(types, cfg)
    with pytest.raises(ValueError, match="^d must be non-increasing"):
        Contract(
            d=np.array([1.0, 2.0]), r=np.array([1.0, 1.0]),  # d increasing
            pi=c.pi, kappa=c.kappa, A=c.A, B=c.B,
            order=c.order,
        )


def test_nan_menu_fails_validation():
    """The checks on d and pi reject a menu with a NaN or infinite entry."""
    types = [_spec(), _spec(theta=4.0)]
    c = design_contract(types, GameConfig(T=10.0))
    for d in ([np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan]):
        with pytest.raises(ValueError, match="^d must"):
            replace(c, d=np.array(d))
    with pytest.raises(ValueError, match="^pi must be non-decreasing"):
        replace(c, pi=np.array([1.0, np.nan]))
    # a one-item menu has no ordering to break
    single = design_contract(types[:1], GameConfig(T=10.0))
    for d in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^d must be positive and finite"):
            replace(single, d=np.array([d]))
    # a NaN T never reaches design_contract: GameConfig refuses it
    with pytest.raises(ValueError, match="T must"):
        design_contract(types, GameConfig(T=np.nan))


def test_contract_checks_itself_on_construction():
    """A Contract refuses a bad menu when it is built, replace builds anew,
    and the ordering checks use the fixed relative slack 1e-9 whatever the
    game's tol."""
    c = design_contract([_spec(), _spec(theta=4.0)], GameConfig(T=10.0, tol=1e-3))
    rest = dict(r=c.r, pi=c.pi, kappa=c.kappa, A=c.A, B=c.B, order=c.order)
    with pytest.raises(ValueError, match="^d must be positive and finite"):
        Contract(d=np.array([np.nan, 1.0]), **rest)
    with pytest.raises(ValueError, match="^d must be non-increasing"):
        replace(c, d=np.array([1.0, 1.0 + 1e-8]))
    replace(c, d=np.array([1.0, 1.0 + 1e-10]))
    with pytest.raises(ValueError, match="^pi must be non-decreasing"):
        replace(c, pi=c.pi[::-1])
    with pytest.raises(ValueError, match="^order must be a permutation"):
        replace(c, order=np.array([0, 0]))
    with pytest.raises(ValueError, match="^r, pi, kappa, A and B must"):
        replace(c, r=c.r[:1])
