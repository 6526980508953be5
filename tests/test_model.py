"""Closed-form cost and payoff formulas."""
import numpy as np
import pytest

from fedincentives.contract import design_contract, optimal_rewards
from fedincentives.model import (
    Contract,
    ContractItem,
    GameConfig,
    Population,
    UserTerms,
    UserTypeSpec,
    aggregated_marginal_cost,
    cost_coefficients,
    expected_unlearning_load,
    retention_discounted_cost,
    stage1_expected_cost,
    stage2_expected_payoff,
    stage3_payoff,
    stage4_realized_cost,
    truncated_normal_moments,
)

from conftest import random_cfg, random_types


def _spec(**kw):
    base = dict(theta=1.0, xi=2.0, count=1, p=0.5, q=0.5, loss_mean=0.5, loss_var=0.0)
    base.update(kw)
    return UserTypeSpec(**base)


def test_aggregated_marginal_cost_worked_example():
    cfg = GameConfig(T=10.0, lam=0.0)
    t = _spec()
    assert aggregated_marginal_cost(t, [t], cfg) == pytest.approx(21.0)


def test_aggregated_marginal_cost_zero_theta():
    cfg = GameConfig(T=50.0, lam=3.0)
    t = _spec(theta=0.0, xi=7.0, loss_mean=0.3)
    # training-cost terms vanish; only the privacy term survives
    assert aggregated_marginal_cost(t, [t], cfg) == pytest.approx(7.0 * 0.3)


def test_aggregated_marginal_cost_p_one_degenerate():
    cfg = GameConfig()
    # validate() rejects p=1, but the formula must still refuse it explicitly
    t = UserTypeSpec(theta=1.0, xi=2.0, count=1, p=1.0, q=0.5, loss_mean=0.5, loss_var=0.0)
    with pytest.raises(ZeroDivisionError):
        aggregated_marginal_cost(t, [t], cfg)


def test_kappa_worked_example_and_identity():
    cfg = GameConfig(T=10.0, lam=0.0)
    t = _spec()
    kap = retention_discounted_cost(t, [t], cfg)
    assert kap == pytest.approx(10.5)
    assert kap / (1.0 - t.p) == pytest.approx(21.0)


def test_kappa_reduces_to_pi_at_p_zero():
    cfg = GameConfig(T=30.0, lam=0.02)
    t = _spec(p=0.0)
    assert retention_discounted_cost(t, [t], cfg) == pytest.approx(
        aggregated_marginal_cost(t, [t], cfg)
    )


def test_kappa_only_privacy_term():
    cfg = GameConfig(T=1e-12, lam=0.0)
    t = _spec(p=0.0, xi=11.0, loss_mean=0.25)
    # T=0 is rejected by validate, so use a negligible T instead
    assert retention_discounted_cost(t, [t], cfg) == pytest.approx(11.0 * 0.25, rel=1e-9)


def test_unlearning_load_examples():
    t = _spec(count=2, p=0.5, q=0.5, loss_mean=1.0, loss_var=0.0)
    assert expected_unlearning_load([t], GameConfig(lam=4.0)) == pytest.approx(2.0)
    assert expected_unlearning_load([t], GameConfig(lam=0.0)) == 0.0
    everyone_retained = _spec(count=9, q=1.0)
    assert expected_unlearning_load([everyone_retained], GameConfig(lam=4.0)) == 0.0


def test_pi_kappa_identity_random(rng):
    for _ in range(300):
        types = random_types(rng)
        cfg = random_cfg(rng)
        for t in types:
            pi = aggregated_marginal_cost(t, types, cfg)
            kap = retention_discounted_cost(t, types, cfg)
            assert kap == pytest.approx((1.0 - t.p) * pi, rel=1e-12)


def test_cost_coefficient_a_worked_example():
    cfg = GameConfig(T=100.0, rho=1.0, lam=0.0)
    t = _spec(count=1000, p=0.0028, q=0.5)
    A, _ = cost_coefficients([t], cfg)
    assert A[0] == pytest.approx(10.0 * (1.0 - 0.0014))


def test_cost_coefficient_a_decreasing_in_t():
    t = _spec(count=100, p=0.1, q=0.5)
    prev = np.inf
    for T in (10.0, 50.0, 250.0):
        A, _ = cost_coefficients([t], GameConfig(T=T))
        assert A[0] < prev
        prev = A[0]


def test_cost_coefficients_require_sorted_pi():
    cfg = GameConfig(T=100.0, lam=0.0)
    hi = _spec(theta=5.0, xi=2000.0, p=0.0)
    lo = _spec(theta=1.0, xi=100.0, p=0.0)
    with pytest.raises(ValueError):
        cost_coefficients([hi, lo], cfg)


def test_b_single_type_has_no_cross_term():
    cfg = GameConfig(T=100.0)
    t = _spec(count=50, p=0.1)
    _, B = cost_coefficients([t], cfg)
    pi = aggregated_marginal_cost(t, [t], cfg)
    alpha = expected_unlearning_load([t], cfg)
    own = cfg.gamma * t.count * (
        t.p * t.q * (alpha * t.theta + t.xi * t.loss_mean) + (1 - t.p) * pi
    )
    assert B[0] == pytest.approx(own, rel=1e-12)


def test_stage2_payoff_binding_ir():
    cfg = GameConfig(T=10.0, lam=0.0)
    t = _spec()
    kap = retention_discounted_cost(t, [t], cfg)
    d = 3.0
    item = ContractItem(d=d, r_learn=kap * d / (1.0 - t.p))
    assert stage2_expected_payoff(t, item, [t], cfg) == pytest.approx(0.0, abs=1e-12)


def test_stage2_payoff_zero_contract():
    cfg = GameConfig()
    t = _spec()
    assert stage2_expected_payoff(t, ContractItem(d=1e-300, r_learn=0.0), [t], cfg) == pytest.approx(0.0)


def test_stage2_information_rent_two_types(rng):
    """With the closed-form rewards, the low-cost type's expected payoff
    equals (1-p_1)(pi_2 - pi_1) d_2."""
    for _ in range(50):
        types = random_types(rng, J=2)
        cfg = random_cfg(rng)
        c = design_contract(types, cfg)
        srt = [types[i] for i in c.order]
        payoff = stage2_expected_payoff(srt[0], c.items[0], types, cfg)
        rent = (1.0 - srt[0].p) * (c.pi[1] - c.pi[0]) * c.items[1].d
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
        reduced = float(np.sum(np.asarray(c.A) / [it.d for it in c.items])
                        + np.sum(np.asarray(c.B) * [it.d for it in c.items]))
        assert direct == pytest.approx(reduced, rel=1e-9)


def test_stage1_identity_for_any_monotone_d(rng):
    """The identity does not rely on the optimizer's d, only on the rewards."""
    from fedincentives.contract import _canonical_blocks

    for _ in range(200):
        types = random_types(rng)
        cfg = random_cfg(rng)
        pis = sorted(
            range(len(types)),
            key=lambda i: aggregated_marginal_cost(types[i], types, cfg),
        )
        srt = [types[i] for i in pis]
        A, B = cost_coefficients(srt, cfg)
        d = np.sort(rng.uniform(1.0, 500.0, size=len(types)))[::-1]
        pi = [aggregated_marginal_cost(t, types, cfg) for t in srt]
        r = optimal_rewards(d, pi)
        c = Contract(
            items=[ContractItem(d=float(di), r_learn=float(ri)) for di, ri in zip(d, r)],
            pi=pi,
            kappa=[retention_discounted_cost(t, types, cfg) for t in srt],
            A=list(A),
            B=list(B),
            blocks=_canonical_blocks(d),
            order=pis,
        )
        direct = stage1_expected_cost(c, srt, cfg)
        reduced = float(np.sum(A / d) + np.sum(B * d))
        assert direct == pytest.approx(reduced, rel=1e-9)


def test_stage1_single_type_minimum_value():
    cfg = GameConfig(T=80.0, lam=0.01)
    t = _spec(count=40, p=0.05)
    c = design_contract([t], cfg)
    A, B = c.A[0], c.B[0]
    assert c.items[0].d == pytest.approx(np.sqrt(A / B), rel=1e-12)
    assert stage1_expected_cost(c, [t], cfg) == pytest.approx(2.0 * np.sqrt(A * B), rel=1e-9)


def test_stage4_no_revokers():
    types = [_spec(), _spec(theta=2.0)]
    cfg = GameConfig(T=10.0)
    contract = design_contract(types, cfg)
    pop = _two_user_population()
    pop.shapley = np.array([0.3, -0.1])
    total, parts = stage4_realized_cost(pop, UserTerms.of(pop, contract, types), cfg)
    rl = sum(contract.per_type()[1][i] for i in (0, 1))
    assert total == pytest.approx(0.2 + cfg.gamma * rl)
    assert parts["retention_rewards"] == 0.0
    assert parts["accuracy"] + parts["learning_rewards"] + parts["retention_rewards"] == pytest.approx(total, rel=1e-12)


def test_stage4_empty_population():
    types = [_spec()]
    cfg = GameConfig()
    contract = design_contract(types, cfg)
    pop = Population(type_idx=np.array([], dtype=int), loss=np.array([]), shapley=np.array([]))
    total, _ = stage4_realized_cost(pop, UserTerms.of(pop, contract, types), cfg)
    assert total == 0.0


def test_stage4_difference_equals_retention_objective(rng):
    """Retaining S instead of nobody shifts the realized cost by exactly the
    retention objective of S."""
    from fedincentives.retention import retention_incentives, retention_objective

    types = random_types(rng, J=3)
    cfg = GameConfig(T=50.0, lam=0.05, gamma=1e-4)
    contract = design_contract(types, cfg)
    n = 12
    pop = Population(
        type_idx=rng.integers(0, 3, size=n),
        loss=rng.uniform(0.1, 0.9, size=n),
        shapley=rng.normal(0.0, 1.0, size=n),
    )
    pop.revoke = np.zeros(n, dtype=bool)
    pop.revoke[[2, 5, 7, 9]] = True
    revokers = np.flatnonzero(pop.revoke)
    pop.retained = np.zeros(n, dtype=bool)
    terms = UserTerms.of(pop, contract, types)
    base, _ = stage4_realized_cost(pop, terms, cfg)
    for subset in ([], [5], [2, 9], [2, 5, 7, 9]):
        pop.retained = np.zeros(n, dtype=bool)
        pop.retained[subset] = True
        inc_map = retention_incentives(subset, revokers, pop, terms, cfg)
        vec = np.zeros(n)
        for uid, val in inc_map.items():
            vec[uid] = val
        total, _ = stage4_realized_cost(pop, terms, cfg, incentives=vec)
        f = retention_objective(subset, revokers, pop, terms, cfg)
        assert total - base == pytest.approx(f, rel=1e-9, abs=1e-12)


def test_operations_are_pure(rng):
    types = random_types(rng, J=3)
    cfg = random_cfg(rng)
    a1 = [aggregated_marginal_cost(t, types, cfg) for t in types]
    a2 = [aggregated_marginal_cost(t, types, cfg) for t in types]
    assert a1 == a2
    c1 = design_contract(types, cfg)
    c2 = design_contract(types, cfg)
    assert [it.d for it in c1.items] == [it.d for it in c2.items]
    assert [it.r_learn for it in c1.items] == [it.r_learn for it in c2.items]


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
    _spec().validate()
    with pytest.raises(ValueError):
        _spec(theta=-1.0).validate()
    with pytest.raises(ValueError):
        _spec(count=0).validate()
    with pytest.raises(ValueError):
        _spec(p=1.0).validate()
    with pytest.raises(ValueError):
        _spec(q=1.5).validate()
    with pytest.raises(ValueError):
        _spec(loss_var=-0.1).validate()


def test_game_config_validation():
    GameConfig().validate()
    with pytest.raises(ValueError):
        GameConfig(T=0.0).validate()
    with pytest.raises(ValueError):
        GameConfig(tol=1e-2).validate()
    with pytest.raises(ValueError):
        GameConfig(gamma=0.0).validate()


def test_contract_validation_catches_bad_menus():
    types = [_spec(), _spec(theta=4.0)]
    cfg = GameConfig(T=10.0)
    c = design_contract(types, cfg)
    c.validate(tol=cfg.tol)
    broken = Contract(
        items=[ContractItem(1.0, 1.0), ContractItem(2.0, 1.0)],  # d increasing
        pi=c.pi, kappa=c.kappa, A=c.A, B=c.B,
        blocks=[[0], [1]], order=c.order,
    )
    with pytest.raises(ValueError):
        broken.validate()

