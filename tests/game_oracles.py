"""Brute-force forms of the game's solvers, kept as test oracles.

`brute_force_pooling_oracle` searches every consecutive partition of the menu
that `contract.optimal_data_sizes` pools; `all_equilibria` checks every pure
profile of the revocation game whose extremes `revocation.lower_equilibrium`
and `upper_equilibrium` reach by best-response sweeps.  Tests compare the
library against them.
"""
import math

import numpy as np

from fedincentives.contract import PoolingSolution, _canonical_blocks, _ratio_greater
from fedincentives.revocation import verify_nash


def reduced_cost(d, A, B) -> float:
    """sum_j A_j/d_j + B_j d_j."""
    d = np.asarray(d, dtype=float)
    return float(np.sum(np.asarray(A) / d + np.asarray(B) * d))


def brute_force_pooling_oracle(A, B) -> PoolingSolution:
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
    margin = terms.stay_margin(w, S[:, None] - X * l2)
    ne = np.all(np.where(X, margin <= 0.0, margin >= 0.0), axis=1)
    return X[ne]


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
