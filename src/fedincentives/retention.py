"""Choosing which revoking users to pay to stay, and how much.

Retaining a set S of revokers costs the server each member's contribution
score plus reward-weighted payments, but shrinks the unlearning burden that
the users outside S impose on every retained member.  The relative objective
(cost of retaining S minus cost of retaining nobody) decomposes into three
subset sums, so exact minimization enumerates all 2^n subsets with vector
arithmetic; beyond the configured size cap a quantile-bucket heuristic with
greedy refinement takes over.  The incentive payment makes each retained
user exactly indifferent between staying and leaving.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Contract, GameConfig, Population, UserTerms, UserTypeSpec

__all__ = [
    "RetentionResult",
    "RetentionSizeError",
    "retention_objective",
    "optimal_retention_exact",
    "optimal_retention_heuristic",
    "retention_incentives",
]


class RetentionSizeError(ValueError):
    """Raised when the revoker set is too large for exact enumeration."""


@dataclass
class RetentionResult:
    retained: np.ndarray
    incentives: dict[int, float]
    objective: float
    method: str

    def validate(self) -> None:
        if self.method not in ("exact", "heuristic"):
            raise ValueError("unknown method")
        if sorted(self.incentives) != sorted(int(i) for i in self.retained):
            raise ValueError("incentives must cover exactly the retained users")


def _revoker_vectors(revokers, population, contract, types, cfg):
    """Per-revoker pieces of the objective.

    user holds the revokers' terms of the stay margin,
    c = v + gamma*xi*l*d (direct cost of keeping the user),
    tg = theta*d*lam (unlearning sensitivity, reward weight applied later),
    e = l^2 (burden the user adds if they finally leave).
    """
    revokers = np.asarray(revokers, dtype=int)
    user = UserTerms.of(population, contract, types, revokers)
    v = population.shapley[revokers]
    c = v + cfg.gamma * user.xi * user.loss * user.d
    tg = user.theta * user.d * cfg.lam
    return revokers, user, v, c, tg, user.loss ** 2


def _payments(user, tg, leave_mass, clamp):
    """Indifference payments rU = -(stay margin) at the given leaver mass,
    floored at 0 under clamp; 0.0 - m rather than -m keeps a zero at +0.0."""
    ru = 0.0 - user.stay_margin(tg, leave_mass)
    return np.maximum(ru, 0.0) if clamp else ru


def retention_objective(
    subset,
    revokers,
    population: Population,
    contract: Contract,
    types: list[UserTypeSpec],
    cfg: GameConfig,
) -> float:
    """Relative cost of retaining `subset` out of `revokers`.

    sum_{i in subset} (v_i + gamma xi_i l_i d_i
                       + gamma theta_i d_i lam sum_{k leaves} l_k^2),
    with the leaver sum over revokers outside the subset.  Retaining nobody
    scores 0.  With the clamp switch the payment floor max(rU, 0) is applied,
    which breaks the closed decomposition but keeps the same baseline.
    """
    revokers, user, v, c, tg, e = _revoker_vectors(
        revokers, population, contract, types, cfg
    )
    subset = np.asarray(subset, dtype=int)
    sel = np.isin(revokers, subset)
    if subset.size != int(np.sum(sel)):
        raise ValueError("subset must consist of revokers")
    leave_mass = float(np.sum(e[~sel]))
    if cfg.clamp_retention_incentives:
        ru = _payments(user, tg, leave_mass, clamp=True)
        return float(np.sum((v + cfg.gamma * (user.r + ru))[sel]))
    return float(np.sum(c[sel]) + cfg.gamma * np.sum(tg[sel]) * leave_mass)


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
    contract: Contract,
    types: list[UserTypeSpec],
    cfg: GameConfig,
) -> RetentionResult:
    """Minimize the retention objective over every subset of revokers.

    Unclamped, the objective is C_S + T_S * (E_tot - E_S) with three subset
    sums, all built by doubling in O(2^n).  Clamped mode evaluates masks in
    chunks instead.  Raises RetentionSizeError beyond the configured cap.
    """
    ids, user, v, c, tg, e = _revoker_vectors(
        revokers, population, contract, types, cfg
    )
    n = len(ids)
    if n > cfg.retention_exact_threshold:
        raise RetentionSizeError(
            f"{n} revokers exceed exact cap {cfg.retention_exact_threshold}; "
            "use optimal_retention_heuristic"
        )
    if n == 0:
        return RetentionResult(
            retained=np.array([], dtype=int), incentives={}, objective=0.0, method="exact"
        )
    e_tot = float(np.sum(e))
    if cfg.clamp_retention_incentives:
        objective = np.empty(1 << n)
        gamma_t = cfg.gamma
        chunk = 1 << 12
        bits = np.arange(n)
        for start in range(0, 1 << n, chunk):
            masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint32)
            X = ((masks[:, None] >> bits) & 1).astype(bool)
            leave = e_tot - X @ e
            ru = _payments(user, tg, leave[:, None], clamp=True)
            per_user = v + gamma_t * (user.r + ru)
            objective[start : start + len(masks)] = np.where(X, per_user, 0.0).sum(axis=1)
    else:
        C = _subset_sums(c)
        T = _subset_sums(cfg.gamma * tg)
        E = _subset_sums(e)
        objective = C + T * (e_tot - E)
    mask = _pick_mask(objective, n)
    sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
    retained = ids[sel]
    incentives = retention_incentives(retained, ids, population, contract, types, cfg)
    return RetentionResult(
        retained=retained,
        incentives=incentives,
        objective=float(objective[mask]),
        method="exact",
    )


def optimal_retention_heuristic(
    revokers,
    population: Population,
    contract: Contract,
    types: list[UserTypeSpec],
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
    ids, user, v, c, tg, e = _revoker_vectors(
        revokers, population, contract, types, cfg
    )
    n = len(ids)
    if n == 0:
        return RetentionResult(
            retained=np.array([], dtype=int),
            incentives={},
            objective=0.0,
            method="heuristic",
        )
    categories = min(categories, n)
    # rank features: contribution score, unlearning sensitivity (theta*d up
    # to the lam factor), privacy compensation (xi*l*d up to gamma), burden
    feats = [v, tg, c - v, e]
    score = np.zeros(n)
    for f in feats:
        order = np.argsort(f, kind="stable")
        ranks = np.empty(n)
        ranks[order] = np.arange(n)
        score += ranks / max(n - 1, 1)
    order = np.argsort(score, kind="stable")
    buckets = np.array_split(order, categories)

    e_tot = float(np.sum(e))
    clamp = cfg.clamp_retention_incentives
    gamma_t = cfg.gamma

    def evaluate(sel: np.ndarray) -> float:
        leave = e_tot - float(np.sum(e[sel]))
        if clamp:
            ru = _payments(user, tg, leave, clamp=True)
            return float(np.sum((v + gamma_t * (user.r + ru))[sel]))
        return float(np.sum(c[sel]) + gamma_t * np.sum(tg[sel]) * leave)

    best_sel = np.zeros(n, dtype=bool)
    best_obj = 0.0
    for combo in range(1 << categories):
        sel = np.zeros(n, dtype=bool)
        for k in range(categories):
            if (combo >> k) & 1:
                sel[buckets[k]] = True
        obj = evaluate(sel)
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
            obj = evaluate(trial)
            if obj < best_obj - 1e-15 * max(1.0, abs(best_obj)):
                best_obj = obj
                best_sel = trial
                improved = True
    retained = ids[best_sel]
    incentives = retention_incentives(retained, ids, population, contract, types, cfg)
    return RetentionResult(
        retained=retained,
        incentives=incentives,
        objective=best_obj,
        method="heuristic",
    )


def retention_incentives(
    retained,
    revokers,
    population: Population,
    contract: Contract,
    types: list[UserTypeSpec],
    cfg: GameConfig,
) -> dict[int, float]:
    """Indifference payments for the retained users.

    rU_i = theta_i d_i lam * sum_{k leaves} l_k^2 + xi_i l_i d_i - rL_i,
    where the sum covers revokers neither retained nor equal to i.  Values
    may be negative; the clamp switch floors them at 0.
    """
    ids, user, v, c, tg, e = _revoker_vectors(
        revokers, population, contract, types, cfg
    )
    retained = np.asarray(retained, dtype=int)
    sel = np.isin(ids, retained)
    if retained.size != int(np.sum(sel)):
        raise ValueError("retained users must be revokers")
    ru = _payments(user, tg, float(np.sum(e[~sel])), cfg.clamp_retention_incentives)
    return {int(ids[k]): float(ru[k]) for k in np.flatnonzero(sel)}
