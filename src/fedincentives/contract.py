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
    _POOL_TOL, Contract, GameConfig, TypeRates, UserTypeSpec, _menu_order, _require,
)

__all__ = [
    "IRICReport",
    "optimal_rewards",
    "optimal_data_sizes",
    "verify_ir_ic",
    "design_contract",
]

@dataclass
class IRICReport:
    """Participation and self-selection check for a full menu."""

    ir_slack: np.ndarray
    ic_slack: np.ndarray
    worst_ir: float
    worst_ic: float
    floor: float  # -tol * scale: a slack below it is a violation
    violations: list[tuple[str, int, int]]
    ok: bool


def _ratio_greater(x: float, y: float) -> bool:
    # strictly greater with relative guard; equal ratios count as ordered
    return x > y * (1.0 + _POOL_TOL)


def optimal_rewards(d: list[float], pi: list[float], tol: float = 1e-9) -> list[float]:
    """Learning rewards that bind the costliest type and pay rents upward.

    r_J = pi_J d_J and, going down in cost, r_j = pi_j d_j +
    sum_{m>j} (pi_m - pi_{m-1}) d_m.  Requires d non-increasing and pi
    non-decreasing.
    """
    J = len(d)
    if len(pi) != J:
        raise ValueError("d and pi must have equal length")
    _require(*_menu_order(tol, pi, d))
    rewards = [0.0] * J
    rent = 0.0
    for j in range(J - 1, -1, -1):
        rewards[j] = pi[j] * d[j] + rent
        if j > 0:
            rent += (pi[j] - pi[j - 1]) * d[j]
    return rewards


def optimal_data_sizes(A: list[float], B: list[float]) -> list[float]:
    """Pool-adjacent merge of the unconstrained sizes sqrt(A_j/B_j).

    Maintains a stack of blocks; whenever the newest block's ratio
    sum(A)/sum(B) strictly exceeds its predecessor's, the two are merged, so
    the surviving block ratios are non-ascending.  Equal adjacent ratios are
    left unmerged (identical d either way), so the pooled blocks are read off
    the sizes by model.pooled_blocks.  O(J) merges total.
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
    return d


def verify_ir_ic(
    contract: Contract, types: list[UserTypeSpec], cfg: GameConfig
) -> IRICReport:
    """Check participation (IR) and self-selection (IC) for every type.

    Types are given in original order and the report is indexed by menu
    position.  Each type pays its true cost rate kappa under cfg, not the
    rate the menu was priced at (LLA's lambda = 0).  Slacks are expected
    payoffs (IR, the diagonal of TypeRates.payoffs) and own-item minus
    other-item payoffs (IC, the diagonal minus the matrix); a violation is
    any slack below -cfg.tol * scale.
    """
    scale = max(1.0, float(np.max(np.abs(contract.r))))
    payoffs = TypeRates.of(types, cfg).take(contract.order).payoffs(contract.d, contract.r)
    ir = np.diagonal(payoffs).copy()
    ic = ir[:, None] - payoffs
    floor = -cfg.tol * scale
    violations: list[tuple[str, int, int]] = []
    for j in range(len(ir)):
        if ir[j] < floor:
            violations.append(("IR", j, j))
        violations += [("IC", j, m) for m in np.flatnonzero(ic[j] < floor).tolist()]
    return IRICReport(
        ir_slack=ir,
        ic_slack=ic,
        worst_ir=float(np.min(ir)),
        worst_ic=float(np.min(ic)),
        floor=floor,
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
    rates = TypeRates.of(types, cfg)
    order = np.argsort(rates.pi, kind="stable")
    menu = rates.take(order)
    A, B = menu.cost_coefficients(cfg)
    if drop_expected_retention:
        B -= cfg.gamma * menu.count * menu.p * menu.q * menu.X
    d = optimal_data_sizes(A, B)
    return Contract(
        d=np.array(d), r=np.array(optimal_rewards(d, menu.pi, tol=cfg.tol)),
        pi=menu.pi, kappa=menu.kappa, A=A, B=B, order=order,
    )
