"""Sampling realized user populations and locating self-consistent churn rates.

Users' historical revocation/retention rates (p, q) feed the contract design,
but the rates realized in simulation depend on the contract in turn.  The
stationary search scans a (p, q) grid, measuring realized rates with common
random numbers across grid points, then polishes the best grid point with a
damped fixed-point iteration on freshly seeded trials.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .model import Population, UserTypeSpec

__all__ = [
    "SamplingModel",
    "StationarySearch",
    "sample_population",
    "realized_rates",
    "find_stationary_rates",
]

# fixed stream labels keep the seed derivation documented and collision-free
_STREAM_POPULATION = 1
_STREAM_SWEEP = 2
_STREAM_REFINE = 3


@dataclass(frozen=True)
class SamplingModel:
    """Underlying (untruncated) per-type loss normals and the contribution
    score normal.  Losses are truncated to [0, 1] when drawn."""

    loss_mu: tuple
    loss_sigma: tuple
    shapley_mu: float
    shapley_sigma: float

    def validate(self, n_types: int) -> None:
        if len(self.loss_mu) != n_types or len(self.loss_sigma) != n_types:
            raise ValueError("need one loss model per type")
        if any(s < 0 for s in self.loss_sigma) or self.shapley_sigma < 0:
            raise ValueError("sigmas must be nonnegative")


def _truncated_draws(rng, mu: float, sigma: float, n: int) -> np.ndarray:
    """Losses on [0, 1]: rejection sampling with an inverse-CDF fallback."""
    if sigma == 0.0:
        return np.full(n, min(max(mu, 0.0), 1.0))
    out = np.empty(n)
    filled = 0
    for _ in range(100):
        need = n - filled
        if need == 0:
            break
        draw = rng.normal(mu, sigma, size=max(need * 2, 16))
        keep = draw[(draw >= 0.0) & (draw <= 1.0)][:need]
        out[filled : filled + len(keep)] = keep
        filled += len(keep)
    if filled < n:
        a, b = (0.0 - mu) / sigma, (1.0 - mu) / sigma
        u = rng.uniform(size=n - filled)
        out[filled:] = stats.truncnorm.ppf(u, a, b, loc=mu, scale=sigma)
    return out


def sample_population(
    types: list[UserTypeSpec], sampling: SamplingModel, seed: int
) -> Population:
    """Instantiate count_j users per type with losses and contribution scores.

    Reproducible: the full draw is a pure function of (types, sampling, seed).
    """
    sampling.validate(len(types))
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _STREAM_POPULATION]))
    type_idx = []
    losses = []
    for j, t in enumerate(types):
        type_idx.append(np.full(t.count, j, dtype=int))
        losses.append(_truncated_draws(rng, sampling.loss_mu[j], sampling.loss_sigma[j], t.count))
    type_idx = np.concatenate(type_idx)
    loss = np.concatenate(losses)
    shapley = rng.normal(sampling.shapley_mu, sampling.shapley_sigma, size=len(type_idx))
    return Population(type_idx=type_idx, loss=loss, shapley=shapley)


def realized_rates(population: Population) -> tuple[float, float]:
    """Fraction of users who revoked, and of revokers who were retained."""
    n = len(population)
    revoked = int(np.sum(population.revoke))
    p_hat = revoked / n if n else 0.0
    q_hat = float(np.sum(population.retained)) / revoked if revoked else 0.0
    return p_hat, q_hat


@dataclass
class StationarySearch:
    p_star: float
    q_star: float
    grid: list[dict]
    refined: bool


def find_stationary_rates(
    types: list[UserTypeSpec],
    cfg,
    sampling: SamplingModel,
    p_grid,
    q_grid,
    trials: int = 20,
    seed: int = 0,
    refine_steps: int = 4,
    refine_damping: float = 0.5,
    refine_trials: int = 20,
    mechanism: str = "RAR",
) -> StationarySearch:
    """Locate (p, q) whose realized counterpart reproduces itself.

    Every grid point overrides all types' historical rates, runs the full
    pipeline over `trials` populations (drawn once and shared by every grid
    point, since the draws do not depend on p or q), and pools realized
    rates.  The best point by Euclidean distance then seeds a damped
    fixed-point iteration on fresh trials; refine_steps = 0 returns the grid
    point itself.
    """
    from .experiments import run_pipeline

    def with_rates(p: float, q: float) -> list[UserTypeSpec]:
        from dataclasses import replace

        return [replace(t, p=p, q=q) for t in types]

    def draw(stream: int, step: int, n_trials: int) -> list[Population]:
        seeds = (
            np.random.SeedSequence([int(seed), stream, step, trial]).generate_state(1)[0]
            for trial in range(n_trials)
        )
        return [sample_population(types, sampling, int(s)) for s in seeds]

    def measure(p: float, q: float, populations: list[Population]):
        rated = with_rates(p, q)
        revoked = retained = users = 0
        cost_acc = 0.0
        for population in populations:
            outcome = run_pipeline(mechanism, rated, cfg, sampling, population=population)
            users += len(population)
            revoked += int(np.sum(outcome.population.revoke))
            retained += int(np.sum(outcome.population.retained))
            cost_acc += outcome.cost
        p_hat = revoked / users if users else 0.0
        q_hat = retained / revoked if revoked else 0.0
        return p_hat, q_hat, cost_acc / len(populations)

    grid_populations = draw(_STREAM_SWEEP, 0, trials)
    rows = []
    best = None
    for p in p_grid:
        for q in q_grid:
            p_hat, q_hat, cost = measure(p, q, grid_populations)
            dist = float(np.hypot(p_hat - p, q_hat - q))
            rows.append(
                {"p": p, "q": q, "p_hat": p_hat, "q_hat": q_hat, "cost": cost, "dist": dist}
            )
            if best is None or dist < best[0]:
                best = (dist, p, q)
    p_star, q_star = best[1], best[2]

    refined = False
    for step in range(refine_steps):
        populations = draw(_STREAM_REFINE, step + 1, refine_trials)
        p_hat, q_hat, _ = measure(p_star, q_star, populations)
        p_star = (1.0 - refine_damping) * p_star + refine_damping * p_hat
        q_star = (1.0 - refine_damping) * q_star + refine_damping * q_hat
        p_star = min(max(p_star, 0.0), 0.999)
        q_star = min(max(q_star, 0.0), 1.0)
        refined = True
    return StationarySearch(p_star=p_star, q_star=q_star, grid=rows, refined=refined)
