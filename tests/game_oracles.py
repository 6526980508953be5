"""Brute-force forms of the game's solvers, kept as test oracles.

`brute_force_pooling_oracle` searches every consecutive partition of the menu
that `contract.optimal_data_sizes` pools; `all_equilibria` checks every pure
profile of the revocation game whose extremes `revocation.lower_equilibrium`
and `upper_equilibrium` reach by best-response sweeps, and
`sweep_profile_oracle` runs those sweeps with the whole stay margin formed
anew on every sweep; `retention_objective` scores one subset of revokers
from the library's own pieces, `retention_enumeration` scores every subset,
`min_cut_retention_oracle` solves Stage IV as a minimum s-t cut and
`retention_solve_oracle` keeps the solve as written before its gathers were
trimmed, all for `retention.optimal_retention`.
`stage1_expected_cost` sums the expected server cost term by term, the
reference that the reduced form of `model.TypeRates.cost_coefficients` meets;
`stage3_payoff` is one user's entry of `UserTerms.payoffs` under a revocation
profile; `eager_payoffs_oracle` forms a play's realized payoffs as
`experiments.run_pipeline` did on every play before `Outcome.payoffs` formed
them on read; `reference_play` plays Stages II-IV as `run_pipeline` does,
from these oracles alone.  Tests compare the library against them.
"""
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from fedincentives.model import (
    Contract,
    GameConfig,
    Population,
    TypeRates,
    UserTerms,
    UserTypeSpec,
)
from fedincentives.retention import RetentionResult, _mask, _pieces
from fedincentives.revocation import verify_nash

# relative slack of the oracle's own comparisons, set apart from the
# optimizer's so that a change to the optimizer's tolerance shows as a mismatch
ORACLE_TOL = 1e-12


class Pooling(NamedTuple):
    """The oracle's sizes and its own grouping of them into blocks."""

    d: list
    blocks: list


def reduced_cost(d, A, B) -> float:
    """sum_j A_j/d_j + B_j d_j."""
    d = np.asarray(d, dtype=float)
    return float(np.sum(np.asarray(A) / d + np.asarray(B) * d))


def brute_force_pooling_oracle(A, B) -> Pooling:
    """Exhaustive check of all 2^(J-1) consecutive partitions.

    Every block takes its pooled size sqrt(sumA/sumB); partitions whose block
    sizes increase somewhere are infeasible and skipped.  Returns the feasible
    partition with minimal reduced cost, reported in canonical (equal-d run)
    form.  Rejects J > 20.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    J = len(A)
    if J > 20:
        raise ValueError("oracle limited to J <= 20")
    if J == 0:
        raise ValueError("empty instance")
    if np.any(A <= 0) or np.any(B <= 0):
        raise ValueError("A and B must be positive")
    prefA = np.concatenate([[0.0], np.cumsum(A)])
    prefB = np.concatenate([[0.0], np.cumsum(B)])

    best_cost = math.inf
    best_d = None
    # DFS over block end positions; prune on ratio increase
    stack = [(0, math.inf, 0.0, [])]
    while stack:
        start, prev_ratio, cost, d_acc = stack.pop()
        if start == J:
            if cost < best_cost:
                best_cost = cost
                best_d = d_acc
            continue
        for end in range(start + 1, J + 1):
            sa = prefA[end] - prefA[start]
            sb = prefB[end] - prefB[start]
            ratio = sa / sb
            if ratio > prev_ratio * (1.0 + ORACLE_TOL):
                continue  # block sizes would increase
            block_d = math.sqrt(ratio)
            stack.append(
                (end, ratio, cost + 2.0 * math.sqrt(sa * sb), d_acc + [block_d] * (end - start))
            )
    if best_d is None:
        # cannot happen: the single all-in-one block is always feasible
        raise RuntimeError("no feasible partition found")
    return _equal_runs(best_d)


def _equal_runs(d) -> Pooling:
    """Positions grouped into maximal runs of equal d, to ORACLE_TOL."""
    blocks = [[0]]
    for j in range(1, len(d)):
        if abs(d[j] - d[j - 1]) <= ORACLE_TOL * max(1.0, abs(d[j])):
            blocks[-1].append(j)
        else:
            blocks.append([j])
    return Pooling(d=list(d), blocks=blocks)


def stage1_expected_cost(
    contract: Contract, types_sorted: list[UserTypeSpec], cfg: GameConfig
) -> float:
    """Expected server cost of a contract (accuracy + rewards + expected
    retention incentives), for types in the contract's pi order, summed term
    by term: the reference the reduced form sum_j A_j/d_j + B_j d_j meets."""
    X = TypeRates.of(types_sorted, cfg).X
    total = 0.0
    for t, x, d, r in zip(types_sorted, X, contract.d, contract.r):
        total += cfg.rho * t.count * (1.0 - t.p + t.p * t.q) / (cfg.T * d)
        total += cfg.gamma * t.count * (1.0 - t.p) * r
        total += cfg.gamma * t.count * t.p * t.q * x * d
    return total


def stage3_payoff(
    idx: int,
    x: np.ndarray,
    terms: UserTerms,
    cfg: GameConfig,
    q_bar: float,
) -> float:
    """Realized payoff of user idx under revocation profile x: UserTerms.payoffs
    with the burden expected of the revokers x, (1 - q_bar) sum_k x_k l_k^2,
    where q_bar is the anticipated retention rate of revokers."""
    x = np.asarray(x, dtype=bool)
    leaver_mass = (1.0 - q_bar) * float(terms.l2[x].sum())
    # one user as 1-element terms, whose payoff has the bits of the whole vector's entry
    return float(terms.take([idx]).payoffs(x[[idx]], leaver_mass, cfg)[0])


def all_equilibria(terms, cfg, q_bar) -> np.ndarray:
    """Every pure equilibrium by checking all 2^I profiles; I <= 16 only."""
    n = len(terms.loss)
    if n > 16:
        raise ValueError("exhaustive enumeration limited to 16 users")
    # burden weight theta d lam (1 - q_bar) on the others' squared losses
    w = terms.theta * terms.d * cfg.lam * (1.0 - q_bar)
    l2 = terms.loss ** 2
    masks = np.arange(1 << n, dtype=np.uint32)
    X = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    S = X @ l2
    margin = terms.stay_margin(w, S[:, None] - X * l2, terms.stay_base())
    ne = np.all(np.where(X, margin <= 0.0, margin >= 0.0), axis=1)
    return X[ne]


class SweepProfile(NamedTuple):
    x: np.ndarray
    iterations: int
    converged_from: str


def sweep_profile_oracle(terms, cfg, q_bar, start_high: bool) -> SweepProfile:
    """The best-response sweeps as written before the margin's fixed part
    was hoisted out of the loop: every sweep forms w * burden on the whole
    stay margin, for revokers and stayers alike.  Kept verbatim apart from
    the name of the record it returns and the base it now passes to
    `stay_margin`, so that the sweeps of
    `revocation.lower_equilibrium` and `upper_equilibrium` must settle on the
    same profile after the same number of sweeps."""
    w = terms.theta * terms.d * cfg.lam * (1.0 - q_bar)
    l2 = terms.loss ** 2
    n = len(l2)
    x = np.full(n, start_high, dtype=bool)
    iterations = 0
    for _ in range(n + 1):
        iterations += 1
        mass = float(np.sum(l2[x]))
        # own squared loss never enters one's own externality sum
        margin = terms.stay_margin(w, mass - np.where(x, l2, 0.0), terms.stay_base())
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
    return SweepProfile(
        x=x, iterations=iterations, converged_from="all-one" if start_high else "all-zero"
    )


def least_equilibrium_oracle(terms, cfg, q_bar) -> np.ndarray:
    """Componentwise minimum over all equilibria (itself an equilibrium in
    this game of strategic complements; asserted)."""
    profiles = all_equilibria(terms, cfg, q_bar)
    if len(profiles) == 0:
        raise RuntimeError("no pure equilibrium found")
    least = np.all(profiles, axis=0)
    if not verify_nash(least, terms, cfg, q_bar):
        raise RuntimeError("componentwise minimum is not an equilibrium")
    return least


def retention_objective(subset, revokers, population, terms, cfg) -> float:
    """Relative cost of retaining `subset` out of `revokers`.

    sum_{i in subset} (v_i + gamma xi_i l_i d_i
                       + gamma theta_i d_i lam sum_{k leaves} l_k^2),
    with the leaver sum over revokers outside the subset.  Retaining nobody
    scores 0.
    """
    ids, (c, g, e) = _pieces(revokers, population, terms, cfg)
    sel = _mask(ids, subset)
    return float(c[sel].sum() + g[sel].sum() * (e.sum() - e[sel].sum()))


def retention_pieces(revokers, population, terms, cfg):
    """The Stage-IV objective f(S) = C(S) + G(S) (E_tot - E(S)) as the
    per-revoker c = v + gamma xi l d, g = gamma theta d lam and e = l^2."""
    ids = np.asarray(revokers, dtype=int)
    loss, d = terms.loss[ids], terms.d[ids]
    c = population.shapley[ids] + cfg.gamma * terms.xi[ids] * loss * d
    g = cfg.gamma * terms.theta[ids] * d * cfg.lam
    return c, g, loss ** 2


def retention_enumeration(revokers, population, terms, cfg):
    """Every subset of up to 20 revokers as a row of a boolean matrix, with
    its objective from three subset sums built by doubling."""
    c, g, e = retention_pieces(revokers, population, terms, cfg)
    n = len(c)
    if n > 20:
        raise ValueError("enumeration limited to 20 revokers")

    def subset_sums(vals):
        out = np.zeros(1)
        for val in vals:
            out = np.concatenate([out, out + val])
        return out

    masks = np.arange(1 << n)
    X = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    objective = subset_sums(c) + subset_sums(g) * (float(np.sum(e)) - subset_sums(e))
    return X, objective


def min_cut_retention_oracle(revokers, population, terms, cfg) -> np.ndarray:
    """Ids of the least minimizer of the Stage-IV objective, as the minimal
    source side of a minimum s-t cut (Kolmogorov & Zabih, PAMI 2004).

    f(x) = sum_i a_i x_i - sum_{i<k} w_ik x_i x_k with w_ik = g_i e_k + g_k e_i
    >= 0 and a_i = c_i + g_i (E_tot - e_i).  Writing -w x_i x_k as
    -w x_i + w x_i (1 - x_k) gives an edge i -> k, cut when i stays and k
    leaves; a positive unary term is an edge i -> t, a negative one an edge
    s -> i.  Max flow runs on float capacities by shortest augmenting paths.
    """
    ids = np.asarray(revokers, dtype=int)
    c, g, e = retention_pieces(ids, population, terms, cfg)
    n = len(c)
    w = np.triu(g[:, None] * e[None, :] + e[:, None] * g[None, :], 1)
    a = c + g * (float(np.sum(e)) - e) - w.sum(axis=1)
    s, t = n, n + 1
    residual = np.zeros((n + 2, n + 2))
    residual[:n, :n] = w
    residual[s, :n] = np.maximum(-a, 0.0)
    residual[:n, t] = np.maximum(a, 0.0)
    tol = ORACLE_TOL * max(1.0, float(residual.max()))

    def reached():
        parent = np.full(n + 2, -1)
        parent[s] = s
        frontier = [s]
        while frontier and parent[t] < 0:
            step = []
            for u in frontier:
                new = np.flatnonzero((residual[u] > tol) & (parent < 0))
                parent[new] = u
                step.extend(new.tolist())
            frontier = step
        return parent

    parent = reached()
    while parent[t] >= 0:
        path = [t]
        while path[-1] != s:
            path.append(parent[path[-1]])
        edges = list(zip(path[:0:-1], path[-2::-1]))
        push = min(residual[u, v] for u, v in edges)
        for u, v in edges:
            residual[u, v] -= push
            residual[v, u] += push
        parent = reached()
    return ids[parent[:n] >= 0]


# --- the Stage-IV solve as it stood before its gathers were trimmed ---
#
# retention_solve_oracle is retention.optimal_retention as it was written
# when it gathered every column of the revokers' terms, formed every
# revoker's payment and stacked c, gamma g and e afterwards: kept verbatim
# apart from its name and the two helper methods the solve never called, so
# that the library's solve must return the same bytes.

_CHUNK = 1 << 16
_EPS = float(np.finfo(float).eps)


@dataclass
class _Revokers:
    """Per-revoker pieces of the objective.

    user holds the revokers' terms of the stay margin, taken from the play's
    terms together with the products Stage III formed there (l^2, theta d
    and (xi l) d), so that e, tg and the payments gather them rather than
    form them again:
    c = v + gamma*xi*l*d (direct cost of keeping the user),
    tg = theta*d*lam (unlearning sensitivity, reward weight applied later),
    e = l^2 (burden the user adds if they finally leave), e_tot its sum.
    """

    ids: np.ndarray
    user: UserTerms
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
        e = user.l2
        return cls(
            ids=ids,
            user=user,
            # ((gamma xi) l) d, not gamma ((xi l) d): the grouping decides
            # near-tie choices, so the output bytes depend on it
            c=v + cfg.gamma * user.xi * user.loss * user.d,
            tg=user.theta_d * cfg.lam,
            e=e,
            e_tot=float(e.sum()),
            cfg=cfg,
        )

    def payments(self, leave_mass):
        """Indifference payments rU = -(stay margin) at the given leaver
        mass; 0.0 - m rather than -m keeps a zero at +0.0."""
        return 0.0 - self.user.stay_margin(self.tg, leave_mass, self.user.stay_base())

    def incentives(self, sel: np.ndarray) -> np.ndarray:
        """Payments of the selected revokers, aligned with ids[sel], at the
        leaver mass of the unselected ones.  That mass is summed over them,
        not taken as e_tot minus the selected: the output bytes depend on it."""
        return self.payments(float(self.e[~sel].sum()))[sel]

    def result(self, sel: np.ndarray, objective: float) -> RetentionResult:
        return RetentionResult(
            retained=self.ids[sel], incentives=self.incentives(sel), objective=objective
        )


def _breakpoints(pieces, e_tot) -> np.ndarray:
    """The leaver masses L in [0, e_tot] where the key order may change,
    sorted: both ends (e_tot twice, so that it is also the last midpoint)
    and every L inside where keys k_i and k_k swap, (c_i + L g_i) e_k =
    (c_k + L g_k) e_i.  With e_i = 0 < e_k that is the sign change of
    c_i + L g_i, where k_i jumps between -inf and +inf; pairs that never
    swap give inf or NaN, which fall outside."""
    cg, e = pieces[:2], pieces[2]
    cuts = [np.array([0.0, e_tot, e_tot])]
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
    mass L.  A user with e_i = 0 keys at -inf while c_i + L g_i < 0, else at
    +inf or NaN, which sorts last."""
    c, g, e = pieces
    return ((c + levels[:, None] * g) / e).argsort(axis=1, kind="stable")


@np.errstate(divide="ignore", invalid="ignore")
def retention_solve_oracle(
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
    rv = _Revokers.of(revokers, population, terms, cfg)
    pieces, e_tot = np.array([rv.c, cfg.gamma * rv.tg, rv.e]), rv.e_tot
    n = len(rv.e)
    points = _breakpoints(pieces, e_tot)
    levels = (points[:-1] + points[1:]) / 2
    # per prefix size, the lowest objective over the orders read so far and
    # the leaver mass of the order that reached it; the empty set scores 0
    best, at = np.zeros(n + 1), np.zeros(n + 1)
    best[1:] = np.inf
    rows = max(1, _CHUNK // max(n, 1))
    for lo in range(0, len(levels), rows):
        chunk = levels[lo : lo + rows]
        C, G, E = pieces[:, _order(pieces, chunk)].cumsum(axis=2)
        objective = C + G * (e_tot - E)
        low = objective.min(axis=0)
        at[1:] = np.where(low < best[1:], chunk[objective.argmin(axis=0)], at[1:])
        np.minimum(best[1:], low, out=best[1:])
    # a bound on the rounding error of any prefix's objective
    scale = np.abs(pieces[:2]).sum(axis=1)
    rounding = 4 * n * _EPS * (scale[0] + scale[1] * e_tot)
    size = int((best <= best.min() + rounding).argmax())
    sel = np.zeros(n, dtype=bool)
    sel[_order(pieces, at[size : size + 1])[0, :size]] = True
    return rv.result(sel, float(best[size]))


# --- the realized payoffs as every play formed them ---


def eager_payoffs_oracle(terms, cfg, revoke, retained) -> np.ndarray:
    """The realized payoffs as experiments.run_pipeline formed them on every
    play before Outcome.payoffs formed them on read: the final leavers' mass,
    then UserTerms.payoffs with its stay margin written out, in the same
    operations, order and groupings."""
    # retained is a subset of revoke, so XOR leaves the leavers
    leave_mass = float(terms.l2[revoke ^ retained].sum())
    train_cost = terms.theta_d * cfg.T
    stay = terms.r - train_cost - terms.xi_l_d - terms.theta_d * cfg.lam * leave_mass
    return np.where(revoke, -train_cost, stay)


# --- a whole play from the oracles ---


class ReferencePlay(NamedTuple):
    """The observables of one play, with the rounding scale of each float:
    the sum of the absolute values of the terms it is formed from."""

    revoke: np.ndarray
    retained: np.ndarray
    incentives: np.ndarray
    incentive_scale: np.ndarray
    cost_parts: dict
    part_scale: dict


def reference_play(mechanism, contract, types, cfg, population) -> ReferencePlay:
    """experiments.run_pipeline built from the oracles above.

    Stage II gives each user, one at a time, its type's menu item.  Stage III
    is the least equilibrium by enumeration up to 12 users and by the
    unhoisted ascent past that.  Stage IV (none under NRI) is the least
    minimizer by enumeration up to 16 revokers, objectives within ORACLE_TOL
    of their scale counting as tied, and by the minimum cut past that.  Each
    retained user is paid to be exactly indifferent, theta d lam L + xi l d
    - r at the final leavers' squared-loss mass L, and the cost parts are
    summed user by user.
    """
    n = len(population)
    item = {int(j): k for k, j in enumerate(contract.order)}
    d, r, theta, xi = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    for i, j in enumerate(population.type_idx):
        d[i], r[i] = contract.d[item[int(j)]], contract.r[item[int(j)]]
        theta[i], xi[i] = types[j].theta, types[j].xi
    loss = population.loss
    terms = UserTerms(d=d, r=r, theta=theta, xi=xi, loss=loss)
    q_bar = sum(t.count * t.q for t in types) / sum(t.count for t in types)

    if n <= 12:
        revoke = least_equilibrium_oracle(terms, cfg, q_bar)
    else:
        revoke = sweep_profile_oracle(terms, cfg, q_bar, start_high=False).x

    revokers = np.flatnonzero(revoke)
    retained = np.zeros(n, dtype=bool)
    if mechanism.upper() != "NRI" and len(revokers) > 16:
        retained[min_cut_retention_oracle(revokers, population, terms, cfg)] = True
    elif mechanism.upper() != "NRI" and len(revokers):
        X, objective = retention_enumeration(revokers, population, terms, cfg)
        c, g, e = retention_pieces(revokers, population, terms, cfg)
        slack = ORACLE_TOL * (np.abs(c).sum() + np.abs(g).sum() * e.sum())
        tied = np.flatnonzero(objective <= objective.min() + slack)
        retained[revokers[X[tied[np.argmin(X[tied].sum(axis=1))]]]] = True

    leave_mass = sum(loss[k] * loss[k] for k in revokers if not retained[k])
    incentives, incentive_scale = np.zeros(n), np.zeros(n)
    for i in np.flatnonzero(retained):
        pieces = (theta[i] * d[i] * cfg.lam * leave_mass, xi[i] * loss[i] * d[i], -r[i])
        incentives[i] = sum(pieces)
        incentive_scale[i] = sum(abs(piece) for piece in pieces)

    stayers = [i for i in range(n) if not revoke[i] or retained[i]]
    paid = np.flatnonzero(retained)
    parts = {
        "accuracy": sum(float(population.shapley[i]) for i in stayers),
        "learning_rewards": cfg.gamma * sum(r[i] for i in stayers),
        "retention_rewards": cfg.gamma * sum(incentives[i] for i in paid),
    }
    scale = {
        "accuracy": sum(abs(float(population.shapley[i])) for i in stayers),
        "learning_rewards": cfg.gamma * sum(abs(r[i]) for i in stayers),
        "retention_rewards": cfg.gamma * sum(incentive_scale[i] for i in paid),
    }
    parts["total"] = sum(parts.values())
    scale["total"] = sum(scale.values())
    return ReferencePlay(revoke, retained, incentives, incentive_scale, parts, scale)
