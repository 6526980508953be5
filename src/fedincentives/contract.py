"""Optimal menu contract: rewards, data sizes with pooling, and IR/IC checks.

The server's reduced problem is to minimize sum_j A_j/d_j + B_j d_j over
non-increasing positive data sizes d (types indexed by ascending aggregated
marginal cost).  Unconstrained minimizers sqrt(A_j/B_j) that violate the
ordering are pooled: adjacent runs share one data size sqrt(sum A / sum B).
Rewards then follow from the binding IR/IC pattern: the costliest type gets
zero expected payoff and cheaper types collect information rents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Contract,
    ContractItem,
    GameConfig,
    UserTypeSpec,
    aggregated_marginal_cost,
    cost_coefficients,
    expected_unlearning_load,
    retention_discounted_cost,
)

__all__ = [
    "PoolingSolution",
    "IRICReport",
    "optimal_rewards",
    "optimal_data_sizes",
    "brute_force_pooling_oracle",
    "verify_ir_ic",
    "design_contract",
    "reduced_cost",
]

# relative slack for ratio comparisons; avoids spurious merges from fp noise
_RATIO_TOL = 1e-12


@dataclass
class PoolingSolution:
    """Data sizes plus the block partition that produced them.

    blocks lists maximal runs of equal d as menu-position index lists, in
    order; pooled flags positions that share their block with someone else.
    """

    blocks: list[list[int]]
    d: list[float]
    pooled: list[bool]


@dataclass
class IRICReport:
    """Participation and self-selection check for a full menu."""

    ir_slack: np.ndarray
    ic_slack: np.ndarray
    worst_ir: float
    worst_ic: float
    violations: list[tuple[str, int, int]]
    ok: bool


def _ratio_greater(x: float, y: float) -> bool:
    # strictly greater with relative guard; equal ratios count as ordered
    return x > y * (1.0 + _RATIO_TOL)


def optimal_rewards(d: list[float], pi: list[float], tol: float = 1e-9) -> list[float]:
    """Learning rewards that bind the costliest type and pay rents upward.

    r_J = pi_J d_J and, going down in cost, r_j = pi_j d_j +
    sum_{m>j} (pi_m - pi_{m-1}) d_m.  Requires d non-increasing and pi
    non-decreasing.
    """
    J = len(d)
    if len(pi) != J:
        raise ValueError("d and pi must have equal length")
    for a, b in zip(d, d[1:]):
        if b > a * (1.0 + tol):
            raise ValueError("d must be non-increasing")
    for a, b in zip(pi, pi[1:]):
        if b < a - tol * max(1.0, abs(a)):
            raise ValueError("pi must be non-decreasing")
    rewards = [0.0] * J
    rent = 0.0
    for j in range(J - 1, -1, -1):
        rewards[j] = pi[j] * d[j] + rent
        if j > 0:
            rent += (pi[j] - pi[j - 1]) * d[j]
    return rewards


def optimal_data_sizes(A: list[float], B: list[float]) -> PoolingSolution:
    """Pool-adjacent merge of the unconstrained sizes sqrt(A_j/B_j).

    Maintains a stack of blocks; whenever the newest block's ratio
    sum(A)/sum(B) strictly exceeds its predecessor's, the two are merged, so
    the surviving block ratios are non-ascending.  Equal adjacent ratios are
    left unmerged (identical d either way); the reported blocks are the
    maximal runs of equal d.  O(J) merges total.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 1 or A.shape != B.shape:
        raise ValueError("A and B must be equal-length vectors")
    if np.any(A <= 0) or np.any(B <= 0):
        raise ValueError("A and B must be positive")
    stack: list[list[float]] = []  # [sumA, sumB, count]
    for a, b in zip(A, B):
        cur = [float(a), float(b), 1]
        while stack and _ratio_greater(cur[0] / cur[1], stack[-1][0] / stack[-1][1]):
            prev = stack.pop()
            cur = [cur[0] + prev[0], cur[1] + prev[1], cur[2] + prev[2]]
        stack.append(cur)
    d: list[float] = []
    for sa, sb, c in stack:
        d.extend([math.sqrt(sa / sb)] * int(c))
    return _canonical_blocks(d)


def _canonical_blocks(d: list[float]) -> PoolingSolution:
    """Group positions into maximal runs of equal d."""
    blocks: list[list[int]] = []
    for j, val in enumerate(d):
        if blocks and abs(val - d[blocks[-1][0]]) <= _RATIO_TOL * max(1.0, abs(val)):
            blocks[-1].append(j)
        else:
            blocks.append([j])
    pooled = [False] * len(d)
    for blk in blocks:
        if len(blk) > 1:
            for j in blk:
                pooled[j] = True
    return PoolingSolution(blocks=blocks, d=list(d), pooled=pooled)


def reduced_cost(d: np.ndarray, A: np.ndarray, B: np.ndarray) -> float:
    """sum_j A_j/d_j + B_j d_j."""
    d = np.asarray(d, dtype=float)
    return float(np.sum(np.asarray(A) / d + np.asarray(B) * d))


def brute_force_pooling_oracle(A: list[float], B: list[float]) -> PoolingSolution:
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
    best_d: list[float] | None = None
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
            if _ratio_greater(ratio, prev_ratio):
                continue
            block_d = math.sqrt(ratio)
            stack.append(
                (end, ratio, cost + 2.0 * math.sqrt(sa * sb), d_acc + [block_d] * (end - start))
            )
    if best_d is None:
        # cannot happen: the single all-in-one block is always feasible
        raise RuntimeError("no feasible partition found")
    return _canonical_blocks(best_d)


def verify_ir_ic(
    contract: Contract, types: list[UserTypeSpec], cfg: GameConfig
) -> IRICReport:
    """Check participation (IR) and self-selection (IC) for every type.

    Types are given in original order and the report is indexed by menu
    position.  Each type pays its true cost rate kappa under cfg, not the
    rate the menu was priced at (LLA's lambda = 0).  Slacks are expected
    payoffs (IR) and own-item minus other-item payoffs (IC); a violation is
    any slack below -cfg.tol * scale.
    """
    J = len(types)
    d = np.array([it.d for it in contract.items])
    r = np.array([it.r_learn for it in contract.items])
    scale = max(1.0, float(np.max(np.abs(r))))

    ir = np.empty(J)
    ic = np.zeros((J, J))
    violations: list[tuple[str, int, int]] = []
    for j, orig in enumerate(contract.order):
        t = types[orig]
        kappa = retention_discounted_cost(t, types, cfg)
        own = (1.0 - t.p) * r[j] - kappa * d[j]
        ir[j] = own
        if own < -cfg.tol * scale:
            violations.append(("IR", j, j))
        for m in range(J):
            other = (1.0 - t.p) * r[m] - kappa * d[m]
            ic[j, m] = own - other
            if ic[j, m] < -cfg.tol * scale:
                violations.append(("IC", j, m))
    return IRICReport(
        ir_slack=ir,
        ic_slack=ic,
        worst_ir=float(np.min(ir)),
        worst_ic=float(np.min(ic)),
        violations=violations,
        ok=not violations,
    )


def design_contract(
    types: list[UserTypeSpec],
    cfg: GameConfig,
    drop_expected_retention: bool = False,
) -> Contract:
    """Full Stage-I solve: sort, price, pool, reward.

    drop_expected_retention removes the expected retention-incentive term
    from the size coefficients B, for mechanisms that ignore that part of
    the cost.  Types may be in any order; the returned contract's order field
    maps menu positions back to the input indices (stable sort by pricing
    cost rate).
    """
    for t in types:
        t.validate()
    pis = [aggregated_marginal_cost(t, types, cfg) for t in types]
    order = sorted(range(len(types)), key=lambda i: pis[i])
    sorted_types = [types[i] for i in order]
    pi = [pis[i] for i in order]
    kappa = [retention_discounted_cost(types[i], types, cfg) for i in order]
    A, B = cost_coefficients(sorted_types, cfg)
    if drop_expected_retention:
        alpha = expected_unlearning_load(sorted_types, cfg)
        for j, t in enumerate(sorted_types):
            B[j] -= cfg.gamma * t.count * t.p * t.q * (
                alpha * t.theta + t.xi * t.loss_mean
            )
    pooling = optimal_data_sizes(A, B)
    rewards = optimal_rewards(pooling.d, pi, tol=cfg.tol)
    items = [ContractItem(d=dj, r_learn=rj) for dj, rj in zip(pooling.d, rewards)]
    contract = Contract(
        items=items,
        pi=pi,
        kappa=kappa,
        A=list(map(float, A)),
        B=list(map(float, B)),
        blocks=pooling.blocks,
        order=order,
    )
    contract.validate(tol=cfg.tol)
    return contract
