"""Choosing which revoking users to pay to stay, and how much.

Retaining a set S of revokers costs the server each member's contribution
score plus reward-weighted payments, but shrinks the unlearning burden that
the users outside S impose on every retained member.  The relative objective
(cost of retaining S minus cost of retaining nobody) is

    f(S) = C(S) + G(S) (E_tot - E(S)),

with C, G and E the sums over S of c_i = v_i + gamma xi_i l_i d_i (either
sign), g_i = gamma theta_i d_i lam >= 0 and e_i = l_i^2 >= 0.  Its pairwise
terms -(g_i e_k + g_k e_i) are never positive, so f is submodular
(Kolmogorov & Zabih, PAMI 2004): its minimizers form a lattice, and the least
one is the minimizer with fewest members.  Single flips show that the least
minimizer S is {i : k_i(L) < G(S)} for the keys k_i(L) = (c_i + L g_i) / e_i
at L = E_tot - E(S) in [0, E_tot], so it is a prefix of the key order there.
The incentive payment makes each retained user exactly indifferent between
staying and leaving; it may be negative, a charge to stay.  e, theta d and
the payments' (xi l) d are the per-play products that UserTerms formed in
Stage II, gathered for the revokers; c keeps its own grouping.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GameConfig, Population, UserTerms

__all__ = [
    "RetentionResult",
    "optimal_retention",
    "retention_incentives",
]

# key pairs or key entries formed at once by optimal_retention: its memory
# then grows with the number of key crossings, not with n^2 or n times that
_CHUNK = 1 << 16
_EPS = float(np.finfo(float).eps)


@dataclass
class RetentionResult:
    """The retained revokers' ids and their payments, aligned."""

    retained: np.ndarray
    incentives: np.ndarray
    objective: float


def _pieces(revokers, population, terms, cfg) -> tuple[np.ndarray, np.ndarray]:
    """The revokers' ids and the rows c, gamma g and e of f(S), in one
    (3, n) array gathered from the play's terms and the products formed
    there (l^2 and theta d): c = v + gamma xi l d, the direct cost of
    keeping the user; g = theta d lam, the unlearning sensitivity; e = l^2,
    the burden the user adds if they finally leave."""
    ids = np.asarray(revokers, dtype=int)
    pieces = np.empty((3, len(ids)))
    c, g, e = pieces
    # ((gamma xi) l) d, not gamma ((xi l) d), and gamma (theta d lam): the
    # groupings decide near-tie choices, so the output bytes depend on them
    np.multiply(cfg.gamma, terms.xi[ids], out=c)
    c *= terms.loss[ids]
    c *= terms.d[ids]
    c += population.shapley[ids]
    np.multiply(terms.theta_d[ids], cfg.lam, out=g)
    g *= cfg.gamma
    terms.l2.take(ids, out=e)
    return ids, pieces


def _mask(ids, members) -> np.ndarray:
    members = np.asarray(members, dtype=int)
    sel = np.isin(ids, members)
    if members.size != np.count_nonzero(sel):
        raise ValueError("retained users must be revokers")
    return sel


def _retained(ids, e, sel, terms, cfg) -> tuple[np.ndarray, np.ndarray]:
    """The selected revokers' ids and their indifference payments rU = -(stay
    margin) at the leaver mass of the unselected ones.  That mass is summed
    over them, not taken as E_tot minus the selected, and 0.0 - m rather
    than -m keeps a zero at +0.0: the output bytes depend on both."""
    kept = ids[sel]
    margin = terms.stay_margin(
        terms.theta_d[kept] * cfg.lam, float(e[~sel].sum()), base=terms.stay_base(users=kept)
    )
    return kept, 0.0 - margin


def _breakpoints(pieces, e_tot) -> np.ndarray:
    """The leaver masses L in [0, e_tot] where the key order may change,
    sorted: both ends (e_tot twice, so that it is also the last midpoint)
    and every L inside where keys k_i and k_k swap, (c_i + L g_i) e_k =
    (c_k + L g_k) e_i.  With e_i = 0 < e_k that is the sign change of
    c_i + L g_i, where k_i jumps between -inf and +inf; pairs that never
    swap give inf or NaN, which fall outside."""
    cg, e = pieces[:2], pieces[2]
    cuts = [(0.0, e_tot, e_tot)]
    rows = max(1, _CHUNK // max(len(e), 1))
    for lo in range(0, len(e), rows):
        # (c_i e_k - e_i c_k, g_i e_k - e_i g_k) for i in the chunk, every k
        rise, slope = cg[:, lo : lo + rows, None] * e - e[lo : lo + rows, None] * cg[:, None]
        cut = rise / -slope
        cuts.append(cut[(cut > 0) & (cut < e_tot)])
    points = np.concatenate(cuts)
    points.sort()
    return points


def _order(pieces, levels) -> np.ndarray:
    """Revokers sorted by k_i(L) = (c_i + L g_i) / e_i, one row per leaver
    mass L, or one order for a single L.  A user with e_i = 0 keys at -inf
    while c_i + L g_i < 0, else at +inf or NaN, which sorts last."""
    c, g, e = pieces
    return ((c + levels[..., None] * g) / e).argsort(axis=-1, kind="stable")


@np.errstate(divide="ignore", invalid="ignore")
def optimal_retention(
    revokers,
    population: Population,
    terms: UserTerms,
    cfg: GameConfig,
) -> RetentionResult:
    """The least minimizer of the retention objective over subsets of
    revokers: lowest objective first, then fewest members.

    The least minimizer is a prefix of the key order at a leaver mass in
    [0, E_tot] (module docstring), and that order is fixed between the
    crossings of the keys.  Reading it at the middle of every interval
    between crossings, and at E_tot, covers every order the keys take there;
    each order's n prefixes past the empty set are scored with three cumsums.
    Objectives that differ by less than their rounding error count as equal,
    so the size rule decides ties that rounding would break at random.
    """
    ids, pieces = _pieces(revokers, population, terms, cfg)
    e_tot, n = float(pieces[2].sum()), len(ids)
    points = _breakpoints(pieces, e_tot)
    levels = (points[:-1] + points[1:]) / 2
    # per prefix size, the lowest objective over the orders read so far and
    # the leaver mass of the order that reached it; the empty set scores 0
    best, at = np.zeros(n + 1), np.zeros(n + 1)
    tail, at_tail = best[1:], at[1:]
    tail[:] = np.inf
    rows = max(1, _CHUNK // max(n, 1))
    for lo in range(0, len(levels), rows):
        chunk = levels[lo : lo + rows]
        C, G, E = pieces.take(_order(pieces, chunk), axis=1).cumsum(axis=2)
        objective = C + G * (e_tot - E)
        low = objective.min(axis=0)
        np.copyto(at_tail, chunk[objective.argmin(axis=0)], where=low < tail)
        np.minimum(tail, low, out=tail)
    # a bound on the rounding error of any prefix's objective
    scale = np.abs(pieces[:2]).sum(axis=1)
    rounding = 4 * n * _EPS * (scale[0] + scale[1] * e_tot)
    size = int((best <= best.min() + rounding).argmax())
    sel = np.zeros(n, dtype=bool)
    sel[_order(pieces, at[size])[:size]] = True
    kept, payments = _retained(ids, pieces[2], sel, terms, cfg)
    return RetentionResult(retained=kept, incentives=payments, objective=float(best[size]))


def retention_incentives(
    retained,
    revokers,
    population: Population,
    terms: UserTerms,
    cfg: GameConfig,
) -> np.ndarray:
    """Indifference payments for the retained users, in the order they hold
    among `revokers`.

    rU_i = theta_i d_i lam * sum_{k leaves} l_k^2 + xi_i l_i d_i - rL_i,
    where the sum covers revokers neither retained nor equal to i.  Values
    may be negative (a charge to stay).
    """
    ids, pieces = _pieces(revokers, population, terms, cfg)
    return _retained(ids, pieces[2], _mask(ids, retained), terms, cfg)[1]
