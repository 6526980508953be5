"""Sampling realized user populations from the loss model.  A Population is
the draw only; who revoked and who was retained in a play are the masks on
experiments.Outcome, which realized_rates turns into churn rates."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .model import Population, UserTypeSpec, _require

__all__ = ["SamplingModel", "sample_population", "realized_rates",
           "loss_moments", "truncated_normal_moments"]

# stream label of the population draw; the harnesses in experiments use 2-4
_STREAM_POPULATION = 1


@dataclass(frozen=True)
class SamplingModel:
    """Underlying (untruncated) per-type loss normals and the contribution
    score normal.  Losses are truncated to [0, 1] when drawn."""

    loss_mu: tuple
    loss_sigma: tuple
    shapley_mu: float
    shapley_sigma: float

    def __post_init__(self) -> None:
        _require((len(self.loss_mu) == len(self.loss_sigma), "need one loss_sigma per loss_mu"))
        for mu, sigma in zip(self.loss_mu, self.loss_sigma):
            _check_loss(mu, sigma)
        _require(
            (math.isfinite(self.shapley_mu), "shapley_mu must be finite"),
            (0.0 <= self.shapley_sigma < math.inf, "shapley_sigma must be nonnegative and finite"),
        )


# --- the loss model: a type's normal(mu, sigma^2), truncated to [0, 1] ---


_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _norm_cdf(x: float) -> float:
    """Standard normal CDF from erfc, which keeps its relative precision in
    the left tail, where 1 + erf(x / sqrt 2) cancels."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _log_gauss_mass(a: float, b: float) -> float | None:
    """log P(a <= Z <= b), taking the mass from the tail that keeps precision;
    None when the mass underflows to zero or a subnormal."""
    if a > 0:
        a, b = -b, -a
    if b > 0:
        tails = _norm_cdf(a) + _norm_cdf(-b)
        return math.log1p(-tails) if 1.0 - tails >= sys.float_info.min else None
    mass = _norm_cdf(b) - _norm_cdf(a)
    return math.log(mass) if mass >= sys.float_info.min else None


def truncated_normal_moments(
    mu: float, sigma: float, lo: float, hi: float
) -> tuple[float, float]:
    """Mean and variance of a normal(mu, sigma^2) truncated to [lo, hi].

    Closed form on the standardized bounds a, b with the truncated density
    pA, pB there: standardized mean m = pA - pB and variance
    1 + (a - m) pA - (b - m) pB, the form that avoids E[Z^2] - m^2.  Raises
    ValueError when the interval's normal mass underflows.
    """
    if lo >= hi:
        raise ValueError("lo must be smaller than hi")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    a = (lo - mu) / sigma
    b = (hi - mu) / sigma
    log_mass = _log_gauss_mass(a, b)
    if log_mass is None:
        raise ValueError(
            f"normal({mu:g}, {sigma:g}^2) has no representable mass on [{lo:g}, {hi:g}]"
        )
    pa = math.exp(-a * a / 2.0 - _LOG_SQRT_2PI - log_mass)
    pb = math.exp(-b * b / 2.0 - _LOG_SQRT_2PI - log_mass)
    m = pa - pb
    # an infinite bound has zero density; skip it rather than form 0 * inf
    var = 1.0 + (((a - m) * pa if pa else 0.0) - ((b - m) * pb if pb else 0.0))
    return m * sigma + mu, var * sigma * sigma


def _check_loss(mu: float, sigma: float) -> None:
    _require(
        (math.isfinite(mu), "loss_mu must be finite"),
        (0.0 <= sigma < math.inf, "loss_sigma must be nonnegative and finite"),
    )


def loss_moments(mu: float, sigma: float) -> tuple[float, float]:
    """Mean and variance of the losses _truncated_draws draws: normal(mu,
    sigma^2) truncated to [0, 1], or at sigma = 0 the point mu clipped to
    [0, 1]."""
    _check_loss(mu, sigma)
    if sigma == 0.0:
        return min(max(mu, 0.0), 1.0), 0.0
    return truncated_normal_moments(mu, sigma, 0.0, 1.0)


def _truncated_draws(rng, mu: float, sigma: float, out: np.ndarray) -> None:
    """Fill out with losses on [0, 1]: rejection sampling, inverse-CDF fallback."""
    n = len(out)
    if sigma == 0.0:
        out.fill(loss_moments(mu, sigma)[0])
        return
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
        # invert the CDF in the left tail, where _norm_cdf keeps its
        # precision: an interval right of the mean is mirrored and negated
        a, b = (0.0 - mu) / sigma, (1.0 - mu) / sigma
        sign = 1.0
        if a > 0:
            a, b, sign = -b, -a, -1.0
        lo, hi = _norm_cdf(a), _norm_cdf(b)
        inv_cdf = NormalDist().inv_cdf
        z = [inv_cdf(lo + u * (hi - lo)) for u in rng.uniform(size=n - filled)]
        out[filled:] = np.clip(mu + sign * sigma * np.array(z), 0.0, 1.0)


def sample_population(
    types: list[UserTypeSpec], sampling: SamplingModel, seed: int
) -> Population:
    """Instantiate count_j users per type with losses and contribution scores.

    Reproducible: the full draw is a pure function of (types, sampling, seed).
    """
    if len(sampling.loss_mu) != len(types):
        raise ValueError("need one loss model per type")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _STREAM_POPULATION]))
    counts = [t.count for t in types]
    type_idx = np.repeat(np.arange(len(types)), counts)
    loss = np.empty(len(type_idx))
    parts = np.split(loss, np.cumsum(counts)[:-1])
    for part, mu, sigma in zip(parts, sampling.loss_mu, sampling.loss_sigma):
        _truncated_draws(rng, mu, sigma, part)
    shapley = rng.normal(sampling.shapley_mu, sampling.shapley_sigma, size=len(type_idx))
    return Population(type_idx=type_idx, loss=loss, shapley=shapley)


def realized_rates(revoke: np.ndarray, retained: np.ndarray) -> tuple[float, float]:
    """Fraction of users who revoked, and of revokers who were retained."""
    n = len(revoke)
    revoked = np.count_nonzero(revoke)
    p_hat = revoked / n if n else 0.0
    q_hat = np.count_nonzero(retained) / revoked if revoked else 0.0
    return p_hat, q_hat
