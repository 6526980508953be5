"""Choosing which revoking users to pay to stay, and how much.

Retaining a set S of revokers costs the server each member's contribution
score plus reward-weighted payments, but shrinks the unlearning burden that
the users outside S impose on every retained member.  The relative objective
(cost of retaining S minus cost of retaining nobody) decomposes into three
subset sums, so exact minimization enumerates all 2^n subsets with vector
arithmetic; beyond EXACT_MAX_REVOKERS a quantile-bucket heuristic with
greedy refinement takes over.  The incentive payment makes each retained
user exactly indifferent between staying and leaving; it may be negative,
a charge to stay.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GameConfig, Population, UserTerms

__all__ = [
    "EXACT_MAX_REVOKERS",
    "RetentionResult",
    "RetentionSizeError",
    "retention_objective",
    "optimal_retention_exact",
    "optimal_retention_heuristic",
    "retention_incentives",
]


EXACT_MAX_REVOKERS = 20
"""Largest revoker set optimal_retention_exact enumerates (2^n subsets);
run_pipeline hands larger sets to optimal_retention_heuristic."""


class RetentionSizeError(ValueError):
    """Raised when the revoker set is too large for exact enumeration."""


@dataclass
class RetentionResult:
    """The retained revokers' ids and their payments, aligned."""

    retained: np.ndarray
    incentives: np.ndarray
    objective: float
    method: str


@dataclass
class _Revokers:
    """Per-revoker pieces of the objective.

    user holds the revokers' terms of the stay margin,
    c = v + gamma*xi*l*d (direct cost of keeping the user),
    tg = theta*d*lam (unlearning sensitivity, reward weight applied later),
    e = l^2 (burden the user adds if they finally leave), e_tot its sum.
    """

    ids: np.ndarray
    user: UserTerms
    v: np.ndarray
    c: np.ndarray
    tg: np.ndarray
    e: np.ndarray
    e_tot: float
    cfg: GameConfig

    @classmethod
    def of(cls, revokers, population, terms, cfg) -> "_Revokers":
        ids = np.asarray(revokers, dtype=int)
        user = terms.take(ids)
        v = population.shapley[ids]
        e = user.loss ** 2
        return cls(
            ids=ids,
            user=user,
            v=v,
            c=v + cfg.gamma * user.xi * user.loss * user.d,
            tg=user.theta * user.d * cfg.lam,
            e=e,
            e_tot=float(np.sum(e)),
            cfg=cfg,
        )

    def mask(self, members) -> np.ndarray:
        members = np.asarray(members, dtype=int)
        sel = np.isin(self.ids, members)
        if members.size != int(np.sum(sel)):
            raise ValueError("retained users must be revokers")
        return sel

    def payments(self, leave_mass):
        """Indifference payments rU = -(stay margin) at the given leaver
        mass; 0.0 - m rather than -m keeps a zero at +0.0."""
        return 0.0 - self.user.stay_margin(self.tg, leave_mass)

    def objective(self, sel: np.ndarray) -> float:
        """Relative cost of retaining the selected revokers; the leaver mass
        is e_tot minus the selected burden, as in the subset sums."""
        leave = self.e_tot - float(np.sum(self.e[sel]))
        return float(np.sum(self.c[sel]) + self.cfg.gamma * np.sum(self.tg[sel]) * leave)

    def incentives(self, sel: np.ndarray) -> np.ndarray:
        """Payments of the selected revokers, aligned with ids[sel], at the
        leaver mass of the unselected ones.  That mass is summed over them,
        not taken as e_tot minus the selected: the output bytes depend on it."""
        return self.payments(float(np.sum(self.e[~sel])))[sel]

    def result(self, sel: np.ndarray, objective: float, method: str) -> RetentionResult:
        return RetentionResult(
            retained=self.ids[sel],
            incentives=self.incentives(sel),
            objective=objective,
            method=method,
        )


def retention_objective(
    subset,
    revokers,
    population: Population,
    terms: UserTerms,
    cfg: GameConfig,
) -> float:
    """Relative cost of retaining `subset` out of `revokers`.

    sum_{i in subset} (v_i + gamma xi_i l_i d_i
                       + gamma theta_i d_i lam sum_{k leaves} l_k^2),
    with the leaver sum over revokers outside the subset.  Retaining nobody
    scores 0.
    """
    rv = _Revokers.of(revokers, population, terms, cfg)
    return rv.objective(rv.mask(subset))


def _subset_sums(vals: np.ndarray) -> np.ndarray:
    out = np.zeros(1)
    for val in vals:
        out = np.concatenate([out, out + val])
    return out


def _bit_reversed(masks: np.ndarray, n: int) -> np.ndarray:
    rev = np.zeros_like(masks)
    for i in range(n):
        rev |= ((masks >> i) & 1) << (n - 1 - i)
    return rev


def _pick_mask(objective: np.ndarray, n: int) -> int:
    """Index of the minimal objective; ties go to the smallest subset, then
    to the one whose member list is lexicographically smallest."""
    best = float(np.min(objective))
    cands = np.flatnonzero(objective == best).astype(np.uint64)
    if len(cands) == 1:
        return int(cands[0])
    pops = np.zeros(len(cands), dtype=np.int64)
    for i in range(n):
        pops += ((cands >> np.uint64(i)) & np.uint64(1)).astype(np.int64)
    cands = cands[pops == pops.min()]
    rev = _bit_reversed(cands.astype(np.int64), n)
    return int(cands[np.argmax(rev)])


def optimal_retention_exact(
    revokers,
    population: Population,
    terms: UserTerms,
    cfg: GameConfig,
) -> RetentionResult:
    """Minimize the retention objective over every subset of revokers.

    The objective is C_S + T_S * (E_tot - E_S) with three subset sums, all
    built by doubling in O(2^n).  Raises RetentionSizeError beyond
    EXACT_MAX_REVOKERS.
    """
    rv = _Revokers.of(revokers, population, terms, cfg)
    n = len(rv.ids)
    if n > EXACT_MAX_REVOKERS:
        raise RetentionSizeError(
            f"{n} revokers exceed exact cap {EXACT_MAX_REVOKERS}; "
            "use optimal_retention_heuristic"
        )
    C = _subset_sums(rv.c)
    T = _subset_sums(cfg.gamma * rv.tg)
    E = _subset_sums(rv.e)
    objective = C + T * (rv.e_tot - E)
    mask = _pick_mask(objective, n)
    sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
    return rv.result(sel, float(objective[mask]), "exact")


def optimal_retention_heuristic(
    revokers,
    population: Population,
    terms: UserTerms,
    cfg: GameConfig,
    categories: int = 8,
) -> RetentionResult:
    """Bucketed search plus greedy refinement for large revoker sets.

    Revokers are ranked by the average fractional rank of (v, theta*d,
    xi*l*d, l^2) and split into `categories` equal-frequency buckets; all
    2^categories all-in/all-out combinations are scored, then single-user
    flips run to local optimality.  Never worse than retaining nobody.
    """
    if categories > 16:
        raise ValueError("categories capped at 16")
    if categories < 1:
        raise ValueError("categories must be positive")
    rv = _Revokers.of(revokers, population, terms, cfg)
    n = len(rv.ids)
    if n == 0:
        return rv.result(np.zeros(0, dtype=bool), 0.0, "heuristic")
    categories = min(categories, n)
    # rank features: contribution score, unlearning sensitivity (theta*d up
    # to the lam factor), privacy compensation (xi*l*d up to gamma), burden
    feats = [rv.v, rv.tg, rv.c - rv.v, rv.e]
    score = np.zeros(n)
    for f in feats:
        order = np.argsort(f, kind="stable")
        ranks = np.empty(n)
        ranks[order] = np.arange(n)
        score += ranks / max(n - 1, 1)
    order = np.argsort(score, kind="stable")
    buckets = np.array_split(order, categories)

    best_sel = np.zeros(n, dtype=bool)
    best_obj = 0.0
    for combo in range(1 << categories):
        sel = np.zeros(n, dtype=bool)
        for k in range(categories):
            if (combo >> k) & 1:
                sel[buckets[k]] = True
        obj = rv.objective(sel)
        if obj < best_obj:
            best_obj = obj
            best_sel = sel
    # greedy single-user swaps until no strict improvement
    improved = True
    while improved:
        improved = False
        for u in range(n):
            trial = best_sel.copy()
            trial[u] = not trial[u]
            obj = rv.objective(trial)
            if obj < best_obj - 1e-15 * max(1.0, abs(best_obj)):
                best_obj = obj
                best_sel = trial
                improved = True
    return rv.result(best_sel, best_obj, "heuristic")


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
    rv = _Revokers.of(revokers, population, terms, cfg)
    return rv.incentives(rv.mask(retained))
