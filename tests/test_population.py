"""Population sampling and the stationary-rate search."""
from dataclasses import fields, replace

import numpy as np
import pytest

from fedincentives.experiments import ExperimentConfig, find_stationary_rates
from fedincentives.model import GameConfig, UserTypeSpec, truncated_normal_moments
from fedincentives.population import SamplingModel, realized_rates, sample_population


def _one_type(mu, sigma, count, theta=5.0, xi=1200.0, p=0.05, q=0.5):
    mean, var = truncated_normal_moments(mu, sigma, 0.0, 1.0) if sigma > 0 else (mu, 0.0)
    spec = UserTypeSpec(theta=theta, xi=xi, count=count, p=p, q=q,
                        loss_mean=float(min(max(mean, 0.0), 1.0)), loss_var=float(var))
    model = SamplingModel(loss_mu=(mu,), loss_sigma=(sigma,),
                         shapley_mu=5e-5, shapley_sigma=0.04)
    return spec, model


def test_loss_moments_match_truncated_normal():
    spec, model = _one_type(0.4, 0.15, 100000)
    pop = sample_population([spec], model, seed=1)
    mean, var = truncated_normal_moments(0.4, 0.15, 0.0, 1.0)
    n = len(pop)
    assert abs(pop.loss.mean() - mean) < 4.0 * np.sqrt(var / n)
    assert abs(pop.loss.var() - var) < 6.0 * var * np.sqrt(2.0 / n)


def test_shapley_moments():
    spec = UserTypeSpec(theta=5.0, xi=1200.0, count=100000, p=0.05, q=0.5,
                        loss_mean=0.5, loss_var=0.02)
    model = SamplingModel(loss_mu=(0.5,), loss_sigma=(0.1,),
                         shapley_mu=0.3, shapley_sigma=0.2)
    pop = sample_population([spec], model, seed=2)
    n = len(pop)
    assert abs(pop.shapley.mean() - 0.3) < 4.0 * 0.2 / np.sqrt(n)
    assert abs(pop.shapley.std() - 0.2) < 0.01


def test_sampling_deterministic_and_rate_free():
    """Draws depend only on (types, sampling, seed); the historical rates
    p and q do not perturb them, which the grid search relies on."""
    spec, model = _one_type(0.5, 0.2, 500)
    a = sample_population([spec], model, seed=7)
    b = sample_population([spec], model, seed=7)
    assert np.array_equal(a.loss, b.loss) and np.array_equal(a.shapley, b.shapley)
    from dataclasses import replace
    rated = replace(spec, p=0.29, q=0.91)
    c = sample_population([rated], model, seed=7)
    assert np.array_equal(a.loss, c.loss) and np.array_equal(a.shapley, c.shapley)
    d = sample_population([spec], model, seed=8)
    assert not np.array_equal(a.loss, d.loss)


def test_type_index_layout():
    s1, _ = _one_type(0.4, 0.1, 3)
    s2, _ = _one_type(0.6, 0.1, 5)
    model = SamplingModel(loss_mu=(0.4, 0.6), loss_sigma=(0.1, 0.1),
                         shapley_mu=0.0, shapley_sigma=1.0)
    pop = sample_population([s1, s2], model, seed=0)
    assert pop.type_idx.tolist() == [0, 0, 0, 1, 1, 1, 1, 1]
    # a draw carries no outcome: the play's masks live on the Outcome
    assert [f.name for f in fields(pop)] == ["type_idx", "loss", "shapley"]


def test_degenerate_sigma_clips_mean():
    for mu, expect in ((1.7, 1.0), (-0.3, 0.0), (0.6, 0.6)):
        spec, model = _one_type(mu, 0.0, 50)
        pop = sample_population([spec], model, seed=0)
        assert np.all(pop.loss == expect)


def test_losses_confined_to_unit_interval():
    spec, model = _one_type(1.2, 0.5, 2000)
    pop = sample_population([spec], model, seed=3)
    assert np.all((pop.loss >= 0.0) & (pop.loss <= 1.0))


@pytest.mark.parametrize("mu,sigma", [(-3.0, 0.5), (4.0, 0.5), (-5.0, 0.4), (6.0, 0.4)])
def test_rejection_fallback_far_tail(mu, sigma):
    """A mean far outside [0, 1] defeats rejection sampling; the inverse-CDF
    path must still produce draws with the right truncated distribution, on
    either side of the interval, also where the normal CDF at both bounds
    rounds to 1 (or, built from erf, to 0)."""
    from scipy import stats
    spec = UserTypeSpec(theta=5.0, xi=1200.0, count=4000, p=0.05, q=0.5,
                        loss_mean=0.05, loss_var=0.001)
    model = SamplingModel(loss_mu=(mu,), loss_sigma=(sigma,),
                         shapley_mu=0.0, shapley_sigma=1.0)
    pop = sample_population([spec], model, seed=4)
    assert np.all(np.isfinite(pop.loss))
    assert np.all((pop.loss >= 0.0) & (pop.loss <= 1.0))
    a, b = (0.0 - mu) / sigma, (1.0 - mu) / sigma
    ref_mean = stats.truncnorm.mean(a, b, loc=mu, scale=sigma)
    ref_std = stats.truncnorm.std(a, b, loc=mu, scale=sigma)
    assert abs(pop.loss.mean() - ref_mean) < 5.0 * ref_std / np.sqrt(len(pop))


def _sampling(**kw):
    base = dict(loss_mu=(0.5,), loss_sigma=(0.1,), shapley_mu=0.0, shapley_sigma=1.0)
    base.update(kw)
    return SamplingModel(**base)


def test_sampling_model_validation():
    for key, value in (("loss_sigma", (0.1, 0.1)), ("loss_sigma", (-0.1,)),
                       ("shapley_sigma", -1.0)):
        with pytest.raises(ValueError, match=key):
            _sampling(**{key: value})
    # one loss model per type is a rule across records, checked on sampling
    spec, _ = _one_type(0.5, 0.1, 3)
    with pytest.raises(ValueError, match="one loss model per type"):
        sample_population([spec], _sampling(loss_mu=(0.5, 0.5), loss_sigma=(0.1, 0.1)), seed=0)


def test_sampling_model_rejects_non_finite_values():
    """A NaN or infinite mean or sigma would draw NaN or infinite losses and
    scores; the record refuses it on construction."""
    for value in (np.nan, np.inf, -np.inf):
        for key, entry in (("loss_mu", (value,)), ("loss_sigma", (value,)),
                           ("shapley_mu", value), ("shapley_sigma", value)):
            with pytest.raises(ValueError, match=key):
                _sampling(**{key: entry})


def test_realized_rates_edge_cases():
    nobody = np.zeros(4, dtype=bool)
    assert realized_rates(nobody, nobody) == (0.0, 0.0)
    everyone = np.ones(4, dtype=bool)
    assert realized_rates(everyone, everyone) == (1.0, 1.0)
    revoke = np.array([True, True, False, False])
    retained = np.array([True, False, False, False])
    assert realized_rates(revoke, retained) == (0.5, 0.5)
    empty = np.zeros(0, dtype=bool)
    assert realized_rates(empty, empty) == (0.0, 0.0)


def _pipeline_setup(count=300):
    """Single-type economy with enough loss spread for some revocation."""
    mu, sigma = 0.55, 0.2
    mean, var = truncated_normal_moments(mu, sigma, 0.0, 1.0)
    spec = UserTypeSpec(theta=2.0, xi=2000.0, count=count, p=0.05, q=0.5,
                        loss_mean=mean, loss_var=var)
    model = SamplingModel(loss_mu=(mu,), loss_sigma=(sigma,),
                         shapley_mu=5e-5, shapley_sigma=0.04)
    cfg = GameConfig(T=30.0, lam=0.04, rho=1.0, gamma=1e-10)
    return spec, model, cfg


def test_stationary_search_no_churn_collapses_to_origin():
    """When rewards dwarf any realizable privacy loss nobody revokes, so the
    only self-consistent point is (0, 0) at every damping level."""
    spec, model, cfg = _pipeline_setup(count=120)
    quiet = UserTypeSpec(theta=spec.theta, xi=1.0, count=spec.count, p=spec.p,
                         q=spec.q, loss_mean=spec.loss_mean, loss_var=spec.loss_var)
    exp = ExperimentConfig(p_grid=[0.0, 0.1], q_grid=[0.0, 0.5], sweep_trials=2,
                           refine_steps=2, refine_trials=2)
    res = find_stationary_rates([quiet], replace(cfg, seed=0), model, exp)
    assert res.p_star == 0.0 and res.q_star == 0.0
    assert res.refined
    assert all(row["p_hat"] == 0.0 for row in res.grid)


def test_stationary_search_grid_geometry_and_determinism():
    spec, model, cfg = _pipeline_setup()
    cfg = replace(cfg, seed=3)
    exp = ExperimentConfig(p_grid=[0.0, 0.05], q_grid=[0.0, 0.5], sweep_trials=2,
                           refine_steps=1, refine_trials=2)
    res = find_stationary_rates([spec], cfg, model, exp)
    assert len(res.grid) == 4
    for row in res.grid:
        assert 0.0 <= row["p_hat"] <= 1.0 and 0.0 <= row["q_hat"] <= 1.0
        assert row["dist"] == pytest.approx(
            np.hypot(row["p_hat"] - row["p"], row["q_hat"] - row["q"]))
    assert 0.0 <= res.p_star <= 0.999 and 0.0 <= res.q_star <= 1.0
    again = find_stationary_rates([spec], cfg, model, exp)
    assert again.p_star == res.p_star and again.q_star == res.q_star
    assert again.grid == res.grid


def test_stationary_refine_steps_zero_returns_grid_point():
    spec, model, cfg = _pipeline_setup(count=150)
    exp = ExperimentConfig(p_grid=[0.0, 0.02], q_grid=[0.5], sweep_trials=2, refine_steps=0)
    res = find_stationary_rates([spec], replace(cfg, seed=5), model, exp)
    assert not res.refined
    assert (res.p_star, res.q_star) in {(0.0, 0.5), (0.02, 0.5)}
