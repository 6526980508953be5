"""Best-response dynamics for the post-training revocation game.

Each user i compares the reward forfeited by revoking against the privacy
cost of staying plus the expected unlearning burden caused by the users who
do revoke (discounted by the anticipated retention rate q_bar).  Revoking
imposes that burden on everyone else, so decisions are strategic complements
and synchronous best-response sweeps converge monotonically: upward from
nobody-revokes to the least equilibrium, downward from everybody-revokes to
the greatest one.

The sweeps read the per-play products that UserTerms forms once and Stage IV
and the payoffs read too: l^2, theta d and (xi l) d.  Only the burden moves
between sweeps, so the ascent, which every play runs, forms the margin's
fixed part r - (xi l) d once per call and each sweep subtracts w * burden
from it.
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


def _weight(terms, cfg, q_bar):
    """theta d lam (1 - q_bar), the weight of the revokers' squared-loss mass."""
    return terms.theta_d * cfg.lam * (1.0 - q_bar)


def _margin_without_own(terms, w, x):
    """Stay margins under profile x; own squared loss never enters one's own
    externality sum."""
    l2 = terms.l2
    return terms.stay_margin(w, float(l2[x].sum()) - np.where(x, l2, 0.0), terms.stay_base())


def lower_equilibrium(terms: UserTerms, cfg: GameConfig, q_bar: float) -> RevocationProfile:
    """Least Nash equilibrium via synchronous ascent from all-stay.

    Each sweep flips to revoke every user whose staying margin
    rl_i - xi_i l_i d_i - theta_i d_i lam (1-q_bar) sum_{k!=i, revoked} l_k^2
    is strictly negative.  A user indifferent at zero margin stays.  The
    revoker set grows weakly, so at most I sweeps are needed.
    """
    w = _weight(terms, cfg, q_bar)
    l2 = terms.l2
    # only the burden moves between sweeps
    base = terms.stay_base()
    n = len(l2)
    x = np.zeros(n, dtype=bool)
    # the ascent starts from the empty set's mass and count
    mass, count = 0.0, 0
    for iterations in range(1, n + 2):
        # a stayer's burden is the whole mass.  The OR keeps every revoker
        # revoking, since rounding does not promise that a superset's mass is
        # no smaller; x only grows, so a count that stops rising ends it
        x |= terms.stay_margin(w, mass, base=base) < 0.0
        grown = np.count_nonzero(x)
        if grown == count:
            return RevocationProfile(x=x, iterations=iterations)
        mass, count = float(l2[x].sum()), grown
    raise RuntimeError("best-response sweeps failed to settle")


def upper_equilibrium(terms: UserTerms, cfg: GameConfig, q_bar: float) -> RevocationProfile:
    """Greatest Nash equilibrium via descent from all-revoke; if it matches
    lower_equilibrium the equilibrium is unique.  Each sweep flips to stay
    every revoker whose margin is nonnegative."""
    w = _weight(terms, cfg, q_bar)
    x = np.ones(len(terms.l2), dtype=bool)
    for iterations in range(1, len(x) + 2):
        movers = x & (_margin_without_own(terms, w, x) >= 0.0)
        if not movers.any():
            return RevocationProfile(x=x, iterations=iterations)
        x = x & ~movers
    raise RuntimeError("best-response sweeps failed to settle")


def verify_nash(x: np.ndarray, terms: UserTerms, cfg: GameConfig, q_bar: float) -> bool:
    """True iff no user strictly gains from a unilateral flip."""
    x = np.asarray(x, dtype=bool)
    margin = _margin_without_own(terms, _weight(terms, cfg, q_bar), x)
    # a revoker with positive margin would rather stay; a stayer with
    # negative margin would rather revoke
    return bool(np.all(np.where(x, margin <= 0.0, margin >= 0.0)))
