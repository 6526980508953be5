"""Core types and cost formulas for the four-stage incentive game.

The server trains a federated model over T communication rounds with I users
split into J types.  A type is described by its marginal training cost theta,
marginal privacy cost xi, revocation probability p and retention probability q,
plus the first two moments of its training-loss distribution.  The formulas
here price a menu contract {(d_j, r_j)} of per-user data sizes and learning
rewards, taking into account that revoked data must be unlearned by the users
who stay (at a communication cost proportional to the squared losses of the
users who finally leave).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "UserTypeSpec",
    "GameConfig",
    "Contract",
    "Population",
    "UserTerms",
    "TypeRates",
    "pooled_blocks",
    "stage4_realized_cost",
    "mean_retention_rate",
]


# --- configuration types ---


def _require(*rules) -> None:
    """Raise ValueError with the rule of the first (holds, rule) pair whose
    condition is false.  Conditions state what must hold, so a NaN fails.

    The records call it from __post_init__, so a record that exists is
    valid, and dataclasses.replace checks the rules again."""
    for holds, rule in rules:
        if not holds:
            raise ValueError(rule)


@dataclass(frozen=True)
class UserTypeSpec:
    """One user type: costs, churn rates and loss moments.

    loss_mean / loss_var are the moments of the realized (truncated) loss
    distribution, not of the underlying normal used for sampling.
    """

    theta: float
    xi: float
    count: int
    p: float
    q: float
    loss_mean: float
    loss_var: float

    def __post_init__(self) -> None:
        _require(
            (0.0 < self.theta < math.inf, "theta must be positive and finite"),
            (0.0 < self.xi < math.inf, "xi must be positive and finite"),
            (self.count >= 1, "count must be at least 1"),
            (0.0 <= self.p < 1.0, "p must lie in [0, 1)"),
            (0.0 <= self.q <= 1.0, "q must lie in [0, 1]"),
            (0.0 <= self.loss_mean <= 1.0, "loss_mean must lie in [0, 1]"),
            (0.0 <= self.loss_var < math.inf, "loss_var must be nonnegative and finite"),
        )


@dataclass(frozen=True)
class GameConfig:
    """Game-level constants shared by every stage.

    lam is the unlearning-rounds coefficient: unlearning the data of a leaver
    set L costs each staying user i an extra theta_i * d_i * lam * sum of
    squared losses over L.
    """

    T: float = 100.0
    lam: float = 0.04
    rho: float = 1.0
    gamma: float = 1e-10
    seed: int = 0
    tol: float = 1e-9

    def __post_init__(self) -> None:
        _require(
            (0.0 < self.T < math.inf, "T must be positive and finite"),
            (0.0 <= self.lam < math.inf, "lam must be nonnegative and finite"),
            (0.0 < self.rho < math.inf, "rho must be positive and finite"),
            (0.0 < self.gamma < math.inf, "gamma must be positive and finite"),
            (self.seed >= 0, "seed must be nonnegative"),
            (0.0 < self.tol <= 1e-3, "tol must lie in (0, 1e-3]"),
        )


# relative slack under which two data sizes, or two pooling ratios, count as
# equal; keeps fp noise from splitting or merging blocks
_POOL_TOL = 1e-12

# relative slack of Contract's ordering checks; a designed d rises by < _POOL_TOL
_ORDER_TOL = 1e-9


def _menu_order(slack, pi, d=()) -> tuple:
    """The menu's ordering rules as _require pairs: pi non-decreasing and d
    non-increasing, each step within a relative slack of max(1, |pi|) or d."""
    pi, d = np.asarray(pi, dtype=float), np.asarray(d, dtype=float)
    return (
        (np.all(pi[1:] >= pi[:-1] - slack * np.maximum(1.0, np.abs(pi[:-1]))),
         "pi must be non-decreasing"),
        (np.all(d[1:] <= d[:-1] * (1.0 + slack)), "d must be non-increasing"),
    )


def pooled_blocks(d) -> list[list[int]]:
    """Menu positions grouped into maximal runs of equal data size d: the
    blocks of pooled types, in order."""
    blocks: list[list[int]] = []
    for j, val in enumerate(d):
        if blocks and abs(val - d[blocks[-1][0]]) <= _POOL_TOL * max(1.0, abs(val)):
            blocks[-1].append(j)
        else:
            blocks.append([j])
    return blocks


@dataclass(frozen=True, eq=False)
class Contract:
    """Menu contract in ascending order of aggregated marginal cost.

    Entry k of every array is the k-th menu item: data size d, learning
    reward r, and the rates pi, kappa, A, B it was priced at.  order[k] is
    the index into the original type list of the k-th item, so order inverts
    the stable sort applied before pricing.  The menu checks its shape and
    ordering on construction.  Like every record that holds arrays, it
    compares by identity.
    """

    d: np.ndarray
    r: np.ndarray
    pi: np.ndarray
    kappa: np.ndarray
    A: np.ndarray
    B: np.ndarray
    order: np.ndarray

    @property
    def blocks(self) -> list[list[int]]:
        """Menu positions grouped by pooled data size (see pooled_blocks)."""
        return pooled_blocks(self.d)

    def per_type(self) -> tuple[np.ndarray, np.ndarray]:
        """Data sizes and learning rewards indexed by original type."""
        d = np.empty(len(self.d))
        r = np.empty(len(self.r))
        d[self.order] = self.d
        r[self.order] = self.r
        return d, r

    def type_terms(self, types) -> tuple[np.ndarray, float]:
        """The menu as the types read it: rows d, r, theta and xi indexed by
        original type, each type's item and cost rates, and q_bar, the types'
        mean retention rate, which every play anticipates.  The first call
        forms them and later calls with equal types read the same (4, J)
        array and float, so each play of the menu only gathers; like the
        menu's own arrays the rows are read, never written."""
        key = tuple(types)
        kept = self.__dict__.get("_type_terms")
        if kept is None or kept[0] != key:
            rows = np.array([*self.per_type(), [t.theta for t in key], [t.xi for t in key]])
            kept = key, (rows, mean_retention_rate(key))
            object.__setattr__(self, "_type_terms", kept)
        return kept[1]

    def __post_init__(self) -> None:
        d, pi, J = self.d, self.pi, len(self.d)
        _require(
            (all(len(a) == J for a in (self.r, pi, self.kappa, self.A, self.B)),
             "r, pi, kappa, A and B must have one entry per item of d"),
            (sorted(self.order) == list(range(J)), "order must be a permutation"),
            (np.all((d > 0) & (d < np.inf)), "d must be positive and finite"),
            *_menu_order(_ORDER_TOL, pi, d),
        )


@dataclass(frozen=True, eq=False)
class Population:
    """Realized users as drawn: per-user type index, loss and contribution
    score.  The game's outcome is held on experiments.Outcome, so one draw
    can be played under any number of menus."""

    type_idx: np.ndarray
    loss: np.ndarray
    shapley: np.ndarray

    def __len__(self) -> int:
        return len(self.type_idx)


@dataclass(frozen=True, eq=False)
class UserTerms:
    """Stage II played out: each user's menu item and cost rates, gathered
    from its type's column of Contract.type_terms, and its realized loss.
    Stages III-IV read users' terms only from here.

    The per-user products that several stages read are formed once, on
    construction, since every play reads all three: l2 = l^2, a leaver's
    burden; theta_d = theta d, the training cost per round and the unlearning
    weight; xi_l_d = (xi l) d, the privacy cost of staying.  Being
    elementwise, the products `take` forms have the bits of gathering them.
    """

    d: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    xi: np.ndarray
    loss: np.ndarray
    l2: np.ndarray = field(init=False)
    theta_d: np.ndarray = field(init=False)
    xi_l_d: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "l2", self.loss ** 2)
        object.__setattr__(self, "theta_d", self.theta * self.d)
        object.__setattr__(self, "xi_l_d", self.xi * self.loss * self.d)

    @classmethod
    def of(cls, population, contract, types) -> "UserTerms":
        d, r, theta, xi = contract.type_terms(types)[0].take(population.type_idx, axis=1)
        return cls(d=d, r=r, theta=theta, xi=xi, loss=population.loss)

    def take(self, users) -> "UserTerms":
        """The terms of the given users (an index array or a mask)."""
        return UserTerms(*(getattr(self, f.name)[users] for f in fields(self) if f.init))

    def stay_base(self, sunk=0.0, users=...):
        """r - sunk - xi l d, the fixed part of the stay margin, of the users
        an index picks (all by default): no burden moves it, so a caller that
        weighs many burdens forms it once."""
        return self.r[users] - sunk - self.xi_l_d[users]

    def stay_margin(self, w, burden, base):
        """base - w * burden, the payoff formula of stages III-IV.

        burden is the squared-loss mass of the leavers and w its weight,
        theta d lam (times 1 - q_bar where revokers only may leave).  base is
        a stay_base: stay_base() is r - xi l d, what staying gains over
        leaving, and stay_base(sunk) with the training cost sunk = theta d T
        gives a stayer's payoff, a leaver's being -sunk.
        """
        # the grouping (xi l) d and the left-to-right subtraction fix the
        # bytes of every CLI output; keep them.  The difference goes into
        # w * burden's own buffer: a full-size temporary fewer on every sweep
        margin = w * burden
        return np.subtract(base, margin, out=margin)

    def payoffs(self, revoke, burden, cfg: GameConfig) -> np.ndarray:
        """Realized payoffs when the leavers' squared-loss mass is burden.

        A revoker forfeits the reward and keeps only the sunk training cost
        -theta d T; anyone else collects the reward net of training, privacy
        and the unlearning burden theta d lam * burden.
        """
        train_cost = self.theta_d * cfg.T
        # the stayers' payoffs first, so that the margin's temporaries are
        # gone before -train_cost is formed
        stay = self.stay_margin(self.theta_d * cfg.lam, burden, base=self.stay_base(train_cost))
        return np.where(revoke, -train_cost, stay)


# --- scalar helpers ---


def mean_retention_rate(types: list[UserTypeSpec]) -> float:
    """Count-weighted mean retention probability across types."""
    return sum(t.count * t.q for t in types) / sum(t.count for t in types)


def _running_sum(values: np.ndarray) -> float:
    """Sum in index order: np.sum adds pairwise and rounds differently, and
    every CLI output's bytes depend on the order."""
    return float(values.cumsum()[-1]) if len(values) else 0.0


@dataclass(frozen=True)
class TypeRates:
    """Stage I's one-dimensional metrics per type, formed once per design.

    alpha = lam sum_j I_j p_j (1 - q_j) (E[l_j]^2 + Var[l_j]) is the expected
    unlearning load per unit of theta*d.  Per type:
    pi = xi E[l] + theta T / (1 - p) + theta alpha, the aggregated marginal
    cost that orders the menu; kappa = (1 - p) pi, written expanded, the
    participation cost rate; A = rho I (1 - p + p q) / T, the accuracy
    weight; X = alpha theta + xi E[l], the per-unit rate of the expected
    retention payment, weighted by p q where used.
    """

    alpha: float
    pi: np.ndarray
    kappa: np.ndarray
    A: np.ndarray
    X: np.ndarray
    count: np.ndarray
    p: np.ndarray
    q: np.ndarray

    @classmethod
    def of(cls, types: list[UserTypeSpec], cfg: GameConfig) -> "TypeRates":
        """The rates of `types` under cfg, in the order given."""
        theta, xi, count, p, q, loss_mean, loss_var = (
            np.array([getattr(t, f.name) for t in types], dtype=float)
            for f in fields(UserTypeSpec)
        )
        alpha = cfg.lam * _running_sum(count * p * (1.0 - q) * (loss_mean ** 2 + loss_var))
        return cls(
            alpha=alpha,
            pi=xi * loss_mean + theta * cfg.T / (1.0 - p) + theta * alpha,
            kappa=(1.0 - p) * xi * loss_mean + theta * cfg.T + theta * (1.0 - p) * alpha,
            A=cfg.rho * count * (1.0 - p + p * q) / cfg.T,
            X=alpha * theta + xi * loss_mean,
            count=count,
            p=p,
            q=q,
        )

    def take(self, order) -> "TypeRates":
        """The rates in menu order: entry k is type order[k]."""
        return TypeRates(self.alpha, *(getattr(self, f.name)[order] for f in fields(self)[1:]))

    def payoffs(self, d, r) -> np.ndarray:
        """Expected payoffs (1 - p_j) r_m - kappa_j d_m of type j taking item
        m, for items (d, r) in the same order as the rates."""
        return (1.0 - self.p)[:, None] * np.asarray(r) - self.kappa[:, None] * np.asarray(d)

    def cost_coefficients(self, cfg: GameConfig) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients (A_j, B_j) of the reduced server cost
        sum_j A_j/d_j + B_j d_j, for rates in ascending pi order.

        B_j collects the reward and expected retention-incentive terms:

            B_j = gamma I_j (p_j q_j X_j + (1-p_j) pi_j)
                  + sum_{m<j} gamma I_m (1-p_m) (pi_j - pi_{j-1})
        """
        pi = self.pi
        _require(*_menu_order(cfg.tol, pi))
        B = cfg.gamma * self.count * (self.p * self.q * self.X + (1.0 - self.p) * pi)
        rent = cfg.gamma * self.count * (1.0 - self.p)
        for j in range(1, len(pi)):
            B[j] += _running_sum(rent[:j] * (pi[j] - pi[j - 1]))
        return self.A, B


# --- realized cost ---


def stage4_realized_cost(
    population: Population,
    terms: UserTerms,
    cfg: GameConfig,
    revoke: np.ndarray,
    retained: np.ndarray,
    incentives: np.ndarray,
) -> tuple[float, dict[str, float]]:
    """Realized server cost after retention, for revoker and retained masks.

    Stayers are the users who did not revoke plus the retained revokers.  The
    cost is the sum of stayers' contribution scores (accuracy loss estimate)
    plus gamma-weighted learning rewards of stayers and retention incentives
    of retained users.  Returns (total, decomposition).
    """
    stay = ~revoke | retained
    accuracy = float(population.shapley[stay].sum())
    rewards = cfg.gamma * _running_sum(terms.r[stay])
    retention = cfg.gamma * float(incentives[retained].sum())
    total = accuracy + rewards + retention
    parts = {
        "accuracy": accuracy,
        "learning_rewards": rewards,
        "retention_rewards": retention,
        "total": total,
    }
    return total, parts

