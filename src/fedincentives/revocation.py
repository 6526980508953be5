"""Best-response dynamics for the post-training revocation game.

Each user i compares the reward forfeited by revoking against the privacy
cost of staying plus the expected unlearning burden caused by the users who
do revoke (discounted by the anticipated retention rate q_bar).  Revoking
imposes that burden on everyone else, so decisions are strategic complements
and synchronous best-response sweeps converge monotonically: upward from
nobody-revokes to the least equilibrium, downward from everybody-revokes to
the greatest one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GameConfig, UserTerms

__all__ = [
    "RevocationProfile",
    "lower_equilibrium",
    "upper_equilibrium",
    "verify_nash",
]


@dataclass
class RevocationProfile:
    x: np.ndarray
    iterations: int
    converged_from: str

    def validate(self) -> None:
        if self.x.dtype != np.bool_:
            raise ValueError("x must be boolean")
        if self.converged_from not in ("all-zero", "all-one"):
            raise ValueError("unknown start profile")


def _sweep_profile(terms, cfg, q_bar, start_high: bool) -> RevocationProfile:
    w = terms.theta * terms.d * cfg.lam * (1.0 - q_bar)
    l2 = terms.loss ** 2
    n = len(l2)
    x = np.full(n, start_high, dtype=bool)
    iterations = 0
    for _ in range(n + 1):
        iterations += 1
        mass = float(np.sum(l2[x]))
        # own squared loss never enters one's own externality sum
        margin = terms.stay_margin(w, mass - np.where(x, l2, 0.0))
        if start_high:
            movers = x & (margin >= 0.0)
            x = x & ~movers
        else:
            movers = ~x & (margin < 0.0)
            x = x | movers
        if not movers.any():
            break
    else:
        raise RuntimeError("best-response sweeps failed to settle")
    return RevocationProfile(
        x=x, iterations=iterations, converged_from="all-one" if start_high else "all-zero"
    )


def lower_equilibrium(terms: UserTerms, cfg: GameConfig, q_bar: float) -> RevocationProfile:
    """Least Nash equilibrium via synchronous ascent from all-stay.

    Each sweep flips to revoke every user whose staying margin
    rl_i - xi_i l_i d_i - theta_i d_i lam (1-q_bar) sum_{k!=i, revoked} l_k^2
    is strictly negative.  A user indifferent at zero margin stays.  The
    revoker set grows weakly, so at most I sweeps are needed.
    """
    return _sweep_profile(terms, cfg, q_bar, start_high=False)


def upper_equilibrium(terms: UserTerms, cfg: GameConfig, q_bar: float) -> RevocationProfile:
    """Greatest Nash equilibrium via descent from all-revoke; if it matches
    lower_equilibrium the equilibrium is unique."""
    return _sweep_profile(terms, cfg, q_bar, start_high=True)


def verify_nash(x: np.ndarray, terms: UserTerms, cfg: GameConfig, q_bar: float) -> bool:
    """True iff no user strictly gains from a unilateral flip."""
    x = np.asarray(x, dtype=bool)
    w = terms.theta * terms.d * cfg.lam * (1.0 - q_bar)
    l2 = terms.loss ** 2
    margin = terms.stay_margin(w, float(np.sum(l2[x])) - np.where(x, l2, 0.0))
    # a revoker with positive margin would rather stay; a stayer with
    # negative margin would rather revoke
    return bool(np.all(np.where(x, margin <= 0.0, margin >= 0.0)))
