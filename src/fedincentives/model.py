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
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UserTypeSpec",
    "GameConfig",
    "ContractItem",
    "Contract",
    "Population",
    "UserTerms",
    "aggregated_marginal_cost",
    "retention_discounted_cost",
    "expected_unlearning_load",
    "cost_coefficients",
    "stage2_expected_payoff",
    "stage3_payoff",
    "stage1_expected_cost",
    "stage4_realized_cost",
    "truncated_normal_moments",
    "mean_retention_rate",
]


# --- configuration types ---


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

    def validate(self) -> None:
        if self.theta <= 0 or self.xi <= 0:
            raise ValueError("theta and xi must be positive")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if not 0.0 <= self.p < 1.0:
            raise ValueError("p must lie in [0, 1)")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if self.loss_var < 0.0:
            raise ValueError("loss_var must be nonnegative")


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

    def validate(self) -> None:
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.rho <= 0 or self.gamma <= 0:
            raise ValueError("rho and gamma must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 < self.tol <= 1e-3:
            raise ValueError("tol must lie in (0, 1e-3]")


@dataclass(frozen=True)
class ContractItem:
    """Menu entry for one type: data size and learning reward."""

    d: float
    r_learn: float


@dataclass
class Contract:
    """Menu contract in ascending order of aggregated marginal cost.

    order[k] is the index into the original type list of the k-th menu entry,
    so order inverts the stable sort applied before pricing.  blocks lists
    maximal runs of equal data size (pooled types share one block).
    """

    items: list[ContractItem]
    pi: list[float]
    kappa: list[float]
    A: list[float]
    B: list[float]
    blocks: list[list[int]]
    order: list[int]

    def per_type(self) -> tuple[np.ndarray, np.ndarray]:
        """Data sizes and learning rewards indexed by original type."""
        d = np.empty(len(self.items))
        r = np.empty(len(self.items))
        d[self.order] = [it.d for it in self.items]
        r[self.order] = [it.r_learn for it in self.items]
        return d, r

    def validate(self, tol: float = 1e-9) -> None:
        J = len(self.items)
        if not (len(self.pi) == len(self.kappa) == len(self.A) == len(self.B) == J):
            raise ValueError("inconsistent contract arrays")
        if sorted(self.order) != list(range(J)):
            raise ValueError("order must be a permutation")
        for a, b in zip(self.pi, self.pi[1:]):
            if b < a - tol * max(1.0, abs(a)):
                raise ValueError("pi must be non-decreasing")
        d = [it.d for it in self.items]
        if any(x <= 0 for x in d):
            raise ValueError("data sizes must be positive")
        for a, b in zip(d, d[1:]):
            if b > a * (1 + tol):
                raise ValueError("data sizes must be non-increasing in pi order")
        flat = [j for blk in self.blocks for j in blk]
        if flat != list(range(J)):
            raise ValueError("blocks must partition menu positions in order")
        for blk in self.blocks:
            base = d[blk[0]]
            for j in blk[1:]:
                if abs(d[j] - base) > tol * max(1.0, abs(base)):
                    raise ValueError("data sizes inside a block must be equal")
        for left, right in zip(self.blocks, self.blocks[1:]):
            if not d[left[0]] > d[right[0]]:
                raise ValueError("block data sizes must be strictly decreasing")


@dataclass
class Population:
    """Realized users: per-user type index, loss, contribution score and
    revocation / retention outcome flags."""

    type_idx: np.ndarray
    loss: np.ndarray
    shapley: np.ndarray
    revoke: np.ndarray = field(default=None)
    retained: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        n = len(self.type_idx)
        if self.revoke is None:
            self.revoke = np.zeros(n, dtype=bool)
        if self.retained is None:
            self.retained = np.zeros(n, dtype=bool)

    def __len__(self) -> int:
        return len(self.type_idx)


@dataclass(frozen=True)
class UserTerms:
    """Menu item and cost rates of some users of a population, each read
    through its type's entry of Contract.per_type."""

    d: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    xi: np.ndarray
    loss: np.ndarray

    @classmethod
    def of(cls, population, contract, types, users=slice(None)) -> "UserTerms":
        d_of, r_of = contract.per_type()
        idx = population.type_idx[users]
        return cls(
            d=d_of[idx],
            r=r_of[idx],
            theta=np.array([t.theta for t in types], dtype=float)[idx],
            xi=np.array([t.xi for t in types], dtype=float)[idx],
            loss=population.loss[users],
        )

    def stay_margin(self, w, burden, sunk=0.0):
        """r - sunk - xi l d - w * burden, the payoff formula of stages III-IV.

        burden is the squared-loss mass of the leavers and w its weight,
        theta d lam (times 1 - q_bar where revokers only may leave).  With
        sunk = 0 this is what staying gains over leaving; with sunk the
        training cost theta d T it is a stayer's payoff, a leaver's being -sunk.
        """
        # the grouping (xi l) d and the left-to-right subtraction fix the
        # bytes of every CLI output; keep them
        return self.r - sunk - self.xi * self.loss * self.d - w * burden


# --- scalar helpers ---


def mean_retention_rate(types: list[UserTypeSpec]) -> float:
    """Count-weighted mean retention probability across types."""
    total = sum(t.count for t in types)
    if total == 0:
        return 0.0
    return sum(t.count * t.q for t in types) / total


def expected_unlearning_load(types: list[UserTypeSpec], cfg: GameConfig) -> float:
    """Expected unlearning-round mass alpha.

    alpha = lam * sum_j I_j p_j (1 - q_j) (E[l_j]^2 + Var[l_j]): the expected
    number of extra rounds per unit of theta*d caused by users who revoke and
    are not retained.
    """
    acc = 0.0
    for t in types:
        acc += t.count * t.p * (1.0 - t.q) * (t.loss_mean ** 2 + t.loss_var)
    return cfg.lam * acc


def aggregated_marginal_cost(
    type_spec: UserTypeSpec, types: list[UserTypeSpec], cfg: GameConfig
) -> float:
    """Per-data-unit cost rate pi_j used to price rewards.

    pi_j = xi_j E[l_j] + theta_j T / (1 - p_j) + theta_j * alpha, where alpha
    aggregates the expected unlearning load over all types.  Types are indexed
    in ascending order of this quantity before contract design.
    """
    if type_spec.p >= 1.0:
        raise ZeroDivisionError("p = 1 means the type always revokes; cost rate undefined")
    alpha = expected_unlearning_load(types, cfg)
    return (
        type_spec.xi * type_spec.loss_mean
        + type_spec.theta * cfg.T / (1.0 - type_spec.p)
        + type_spec.theta * alpha
    )


def retention_discounted_cost(
    type_spec: UserTypeSpec, types: list[UserTypeSpec], cfg: GameConfig
) -> float:
    """Participation cost rate kappa_j = (1 - p_j) * pi_j.

    Expanded: (1-p_j) xi_j E[l_j] + theta_j T + theta_j (1-p_j) alpha.  The
    individual-rationality constraint is (1-p_j) r_j >= kappa_j d_j.
    """
    alpha = expected_unlearning_load(types, cfg)
    return (
        (1.0 - type_spec.p) * type_spec.xi * type_spec.loss_mean
        + type_spec.theta * cfg.T
        + type_spec.theta * (1.0 - type_spec.p) * alpha
    )


def cost_coefficients(
    types: list[UserTypeSpec], cfg: GameConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (A_j, B_j) of the reduced server cost sum_j A_j/d_j + B_j d_j.

    Requires types already sorted by ascending aggregated marginal cost.
    A_j = rho I_j (1 - p_j + p_j q_j) / T weights model accuracy; B_j collects
    the reward and expected retention-incentive terms:

        B_j = gamma I_j (p_j q_j (alpha theta_j + xi_j E[l_j]) + (1-p_j) pi_j)
              + sum_{m<j} gamma I_m (1-p_m) (pi_j - pi_{j-1})
    """
    J = len(types)
    alpha = expected_unlearning_load(types, cfg)
    pis = [aggregated_marginal_cost(t, types, cfg) for t in types]
    for a, b in zip(pis, pis[1:]):
        if b < a - cfg.tol * max(1.0, abs(a)):
            raise ValueError("types must be sorted by ascending aggregated marginal cost")
    A = np.empty(J)
    B = np.empty(J)
    for j, t in enumerate(types):
        A[j] = cfg.rho * t.count * (1.0 - t.p + t.p * t.q) / cfg.T
        own = cfg.gamma * t.count * (
            t.p * t.q * (alpha * t.theta + t.xi * t.loss_mean)
            + (1.0 - t.p) * pis[j]
        )
        cross = 0.0
        for m in range(j):
            cross += cfg.gamma * types[m].count * (1.0 - types[m].p) * (pis[j] - pis[j - 1])
        B[j] = own + cross
    return A, B


# --- stage payoffs and costs ---


def stage2_expected_payoff(
    type_spec: UserTypeSpec, item: ContractItem, types: list[UserTypeSpec], cfg: GameConfig
) -> float:
    """Expected payoff of a type accepting a menu item:
    (1 - p_j) r - kappa_j d."""
    kap = retention_discounted_cost(type_spec, types, cfg)
    return (1.0 - type_spec.p) * item.r_learn - kap * item.d


def stage3_payoff(
    idx: int,
    x: np.ndarray,
    population: Population,
    contract: Contract,
    types: list[UserTypeSpec],
    cfg: GameConfig,
    q_bar: float,
) -> float:
    """Realized payoff of user idx under revocation profile x.

    A revoker forfeits the reward and keeps only the sunk training cost
    -theta d T.  A non-revoker additionally pays the privacy cost xi l d and
    the expected unlearning cost theta d lam (1 - q_bar) sum_k x_k l_k^2,
    where q_bar is the anticipated retention rate of revokers.
    """
    x = np.asarray(x, dtype=bool)
    user = UserTerms.of(population, contract, types, idx)
    train_cost = float(user.theta * user.d * cfg.T)
    if x[idx]:
        return -train_cost
    leaver_mass = (1.0 - q_bar) * float(np.sum(population.loss[x] ** 2))
    return float(
        user.stay_margin(user.theta * user.d * cfg.lam, leaver_mass, sunk=train_cost)
    )


def stage1_expected_cost(
    contract: Contract, types_sorted: list[UserTypeSpec], cfg: GameConfig
) -> float:
    """Expected server cost of a contract (accuracy + rewards + expected
    retention incentives), for types in the contract's pi order."""
    alpha = expected_unlearning_load(types_sorted, cfg)
    total = 0.0
    for t, item in zip(types_sorted, contract.items):
        total += cfg.rho * t.count * (1.0 - t.p + t.p * t.q) / (cfg.T * item.d)
        total += cfg.gamma * t.count * (1.0 - t.p) * item.r_learn
        total += cfg.gamma * t.count * t.p * t.q * (
            alpha * t.theta + t.xi * t.loss_mean
        ) * item.d
    return total


def stage4_realized_cost(
    population: Population,
    contract: Contract,
    types: list[UserTypeSpec],
    cfg: GameConfig,
    incentives: np.ndarray | None = None,
) -> tuple[float, dict[str, float]]:
    """Realized server cost after retention.

    Stayers are the users who did not revoke plus the retained revokers.  The
    cost is the sum of stayers' contribution scores (accuracy loss estimate)
    plus gamma-weighted learning rewards of stayers and retention incentives
    of retained users.  Returns (total, decomposition).
    """
    stay = ~population.revoke | population.retained
    accuracy = float(np.sum(population.shapley[stay]))
    _, r_of = contract.per_type()
    # a running sum in user order: np.sum adds pairwise and rounds differently
    running = np.cumsum(np.append(0.0, r_of[population.type_idx[stay]]))
    rewards = cfg.gamma * float(running[-1])
    retention = 0.0
    if incentives is not None and population.retained.any():
        retention = cfg.gamma * float(np.sum(incentives[population.retained]))
    total = accuracy + rewards + retention
    parts = {
        "accuracy": accuracy,
        "learning_rewards": rewards,
        "retention_rewards": retention,
        "total": total,
    }
    return total, parts


# --- truncated normal moments ---


_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _norm_cdf(x: float) -> float:
    """Standard normal CDF from erfc, which keeps its relative precision in
    the left tail, where 1 + erf(x / sqrt 2) cancels."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _log_gauss_mass(a: float, b: float) -> float | None:
    """log P(a <= Z <= b), taking the mass from the tail that keeps precision;
    None when the mass underflows to zero or a subnormal."""
    if a > 0:
        a, b = -b, -a
    if b > 0:
        tails = _norm_cdf(a) + _norm_cdf(-b)
        return math.log1p(-tails) if 1.0 - tails >= sys.float_info.min else None
    mass = _norm_cdf(b) - _norm_cdf(a)
    return math.log(mass) if mass >= sys.float_info.min else None


def truncated_normal_moments(
    mu: float, sigma: float, lo: float, hi: float
) -> tuple[float, float]:
    """Mean and variance of a normal(mu, sigma^2) truncated to [lo, hi].

    Closed form on the standardized bounds a, b with the truncated density
    pA, pB there: standardized mean m = pA - pB and variance
    1 + (a - m) pA - (b - m) pB, the form that avoids E[Z^2] - m^2.  Raises
    ValueError when the interval's normal mass underflows.
    """
    if lo >= hi:
        raise ValueError("lo must be smaller than hi")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    a = (lo - mu) / sigma
    b = (hi - mu) / sigma
    log_mass = _log_gauss_mass(a, b)
    if log_mass is None:
        raise ValueError(
            f"normal({mu:g}, {sigma:g}^2) has no representable mass on [{lo:g}, {hi:g}]"
        )
    pa = math.exp(-a * a / 2.0 - _LOG_SQRT_2PI - log_mass)
    pb = math.exp(-b * b / 2.0 - _LOG_SQRT_2PI - log_mass)
    m = pa - pb
    # an infinite bound has zero density; skip it rather than form 0 * inf
    var = 1.0 + (((a - m) * pa if pa else 0.0) - ((b - m) * pb if pb else 0.0))
    return m * sigma + mu, var * sigma * sigma
