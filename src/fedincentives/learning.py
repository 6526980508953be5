"""Synthetic federated training, unlearning and attribution on quadratics.

Local objectives are F_i(w) = 1/2 w'Q_i w + b_i'w, so the global optimum,
strong convexity mu and smoothness L are available in closed form and every
convergence claim can be checked against an exact reference.  Training uses
control-variate corrected local steps (each user holds a correction equal to
its last minibatch gradient at the server point, so client drift cancels in
expectation); minibatch gradients carry Gaussian per-sample noise of
variance sigma^2, giving estimator variance sigma^2/s_i at batch size s_i.
Unlearning continues training on the remaining users from the learned model
until the distance to the remaining-users optimum drops below a target.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .model import _require

__all__ = [
    "LearnConfig",
    "LearnProblem",
    "StepSchedule",
    "TrainTrace",
    "UnlearnSpec",
    "make_problem",
    "restrict_problem",
    "scaffold_train",
    "check_gap_bound",
    "unlearn_continue",
    "training_loss_metric",
    "federated_shapley_exact",
]


# --- problem and schedule types ---


# One rule per [learning] key, worded as that key and stated as what must hold
# (so a NaN fails).  LearnConfig checks its keys here, and LearnProblem,
# StepSchedule and each training run their arguments.
_RULES = {
    "users": (lambda v: v >= 1, "users must be positive"),
    "dim": (lambda v: v >= 1, "dim must be positive"),
    "data_size": (lambda v: v >= 1, "data_size must be positive"),
    "iota": (lambda v: 0.0 < v <= 1.0, "iota must lie in (0, 1]"),
    "noise_sigma2": (lambda v: 0.0 <= v < math.inf, "noise_sigma2 must be nonnegative and finite"),
    "rounds": (lambda v: v >= 1, "rounds must be positive"),
    "local_steps": (lambda v: v >= 1, "local_steps must be positive"),
    "schedule": (lambda v: v in ("constant", "inverse_t"), "schedule must be constant or inverse_t"),
    "step_c": (lambda v: 0.0 < v < math.inf, "step_c must be positive and finite"),
    "step_shift": (lambda v: 0.0 <= v < math.inf, "step_shift must be nonnegative and finite"),
    "seeds": (lambda v: v >= 1, "seeds must be positive"),
    "mu": (lambda v: 0.0 < v < math.inf, "mu must be positive and finite"),
    "condition": (lambda v: 1.0 <= v < math.inf, "condition must be at least 1 and finite"),
    "hessian_spread": (lambda v: 0.0 <= v < 1.0, "hessian_spread must lie in [0, 1)"),
    "b_scale": (lambda v: math.isfinite(v), "b_scale must be finite"),
}


def _check_keys(**values) -> None:
    """Check each value, in order, against its key's rule (rotate has none)."""
    _require(*((_RULES[key][0](v), _RULES[key][1]) for key, v in values.items() if key in _RULES))


@dataclass(frozen=True)
class LearnConfig:
    """[learning]: one field per key, whose default is the key's default.
    It checks each key's rule when built, so make_problem meets only valid ones."""

    users: int = 10
    dim: int = 16
    data_size: int = 64
    iota: float = 0.25
    noise_sigma2: float = 0.01
    rounds: int = 600
    local_steps: int = 5
    schedule: str = "inverse_t"
    step_c: float = 2.0
    step_shift: float = 23.0
    seeds: int = 100
    mu: float = 1.0
    condition: float = 1.0
    hessian_spread: float = 0.0
    rotate: bool = False
    b_scale: float = 1.0

    def __post_init__(self) -> None:
        _check_keys(**vars(self))

    def make_schedule(self) -> StepSchedule:
        return StepSchedule(kind=self.schedule, c=self.step_c, shift=self.step_shift)


@dataclass
class LearnProblem:
    """Per-user quadratics plus sampling geometry.

    Q has shape (I, n, n) with each slice symmetric positive definite, b has
    shape (I, n).  data_sizes are the per-user sample counts d_i; batch sizes
    are s_i = max(1, round(iota * d_i)).  noise_sigma2 bounds the squared
    norm of single-sample gradient noise.
    """

    Q: np.ndarray
    b: np.ndarray
    data_sizes: np.ndarray
    iota: float = 0.25
    noise_sigma2: float = 0.0

    def __post_init__(self) -> None:
        self.Q = np.asarray(self.Q, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.data_sizes = np.asarray(self.data_sizes, dtype=int)
        Q = self.Q
        _require(
            (Q.ndim == 3 and Q.shape[1] == Q.shape[2], "Q must be (users, dim, dim)"),
            (self.b.shape == Q.shape[:2], "b must be (users, dim)"),
            (self.data_sizes.shape == Q.shape[:1] and np.all(self.data_sizes >= 1),
             "data_sizes must be positive, one per user"),
            (np.all(np.isfinite(Q)), "Q must be finite"),
            (np.all(np.isfinite(self.b)), "b must be finite"),
        )
        _check_keys(iota=self.iota, noise_sigma2=self.noise_sigma2)
        _require(
            (np.allclose(Q, np.transpose(Q, (0, 2, 1)), atol=1e-10), "each Q_i must be symmetric"),
            (np.all(np.linalg.eigvalsh(Q)[:, 0] > 0), "each Q_i must be positive definite"),
        )

    @property
    def users(self) -> int:
        return self.Q.shape[0]

    @property
    def dim(self) -> int:
        return self.Q.shape[1]

    @cached_property
    def batch_sizes(self) -> np.ndarray:
        return np.maximum(1, np.round(self.iota * self.data_sizes).astype(int))

    @cached_property
    def q_mean(self) -> np.ndarray:
        return self.Q.mean(axis=0)

    @cached_property
    def b_mean(self) -> np.ndarray:
        return self.b.mean(axis=0)

    @cached_property
    def w_star(self) -> np.ndarray:
        return np.linalg.solve(self.q_mean, -self.b_mean)

    @cached_property
    def mu(self) -> float:
        return float(np.linalg.eigvalsh(self.q_mean)[0])

    @cached_property
    def smoothness(self) -> float:
        return float(max(np.linalg.eigvalsh(self.Q[i])[-1] for i in range(self.users)))

    def global_value(self, w: np.ndarray) -> float:
        return float(0.5 * w @ self.q_mean @ w + self.b_mean @ w)

    def user_gradients(self, w: np.ndarray) -> np.ndarray:
        return self.Q @ w + self.b


@dataclass(frozen=True)
class StepSchedule:
    """Aggregate stepsize per round: constant c, or c/(t+1+shift)."""

    kind: str
    c: float
    shift: float = 0.0

    def __post_init__(self) -> None:
        _check_keys(schedule=self.kind, step_c=self.c, step_shift=self.shift)

    def value(self, t: int) -> float:
        if self.kind == "constant":
            return self.c
        return self.c / (t + 1.0 + self.shift)


@dataclass
class TrainTrace:
    """Seed-averaged squared-distance trajectory."""

    gap: np.ndarray
    gap_stderr: np.ndarray

    @property
    def rounds(self) -> np.ndarray:
        return np.arange(len(self.gap))


@dataclass(frozen=True)
class UnlearnSpec:
    leavers: tuple
    epsilon: float

    def __post_init__(self) -> None:
        _require(
            (len(self.leavers) >= 1, "leavers must be nonempty"),
            (self.epsilon > 0.0, "epsilon must be positive"),
        )


# --- generation ---


def make_problem(learn: LearnConfig, seed: int) -> LearnProblem:
    """Random instance with controllable curvature and heterogeneity.

    The base Hessian has eigenvalues log-spaced in [mu, mu*condition]; each
    user scales it by 1 + hessian_spread*u_i with u_i uniform in [-1, 1] and
    optionally conjugates by a random rotation, so users disagree while
    staying positive definite.  Every size and shape comes from learn.
    """
    users, dim = learn.users, learn.dim
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4C454152]))
    eig = learn.mu * np.logspace(0.0, math.log10(learn.condition), dim)
    Q = np.empty((users, dim, dim))
    for i in range(users):
        scale = 1.0 + learn.hessian_spread * rng.uniform(-1.0, 1.0)
        base = np.diag(eig * scale)
        if learn.rotate:
            mat = rng.standard_normal((dim, dim))
            orth, _ = np.linalg.qr(mat)
            base = orth @ base @ orth.T
        Q[i] = 0.5 * (base + base.T)
    b = learn.b_scale * rng.standard_normal((users, dim))
    return LearnProblem(
        Q=Q,
        b=b,
        data_sizes=np.full(users, learn.data_size),
        iota=learn.iota,
        noise_sigma2=learn.noise_sigma2,
    )


def restrict_problem(problem: LearnProblem, keep: list[int]) -> LearnProblem:
    """Sub-problem over a user subset (same sampling parameters)."""
    keep = list(keep)
    _require((len(keep) >= 1, "keep must be nonempty"))
    return replace(problem, Q=problem.Q[keep], b=problem.b[keep], data_sizes=problem.data_sizes[keep])


# --- training core ---


def _seed_list(seeds) -> list[int]:
    if isinstance(seeds, (int, np.integer)):
        return list(range(int(seeds)))
    return [int(s) for s in seeds]


def _run_scaffold(
    problem: LearnProblem,
    schedule: StepSchedule,
    seeds,
    w0: np.ndarray | None,
    local_steps: int,
):
    """The batched round kernel, run one round per step of the generator.

    Yields (W, None) before the first round, then (W, Y) after each round:
    W is the seeds' server models, shape (seeds, dim), and Y that round's
    local models, shape (users, seeds, dim).  Y is a buffer the next round
    overwrites, so a caller that keeps any of it must copy it.  It never
    stops; callers take as many rounds as they need.
    """
    seed_ids = _seed_list(seeds)
    n_seeds = len(seed_ids)
    _check_keys(local_steps=local_steps, seeds=n_seeds)
    # the rule relating a schedule to a problem; no schedule's stepsize rises
    cap, eta0 = 1.0 / (12.0 * problem.smoothness), schedule.value(0)
    _require((eta0 <= cap * (1.0 + 1e-9), f"stepsize {eta0:.6g} exceeds stability cap {cap:.6g}"))
    dim = problem.dim
    users = problem.users
    if w0 is None:
        w0 = np.zeros(dim)
    w0 = np.asarray(w0, dtype=float)

    gens = [np.random.default_rng(np.random.SeedSequence([s, 0x5343414646])) for s in seed_ids]
    sigma2 = problem.noise_sigma2
    s_i = problem.batch_sizes
    # per-component std so a single sample has squared-norm variance sigma^2
    comp_std = np.sqrt(sigma2 / (dim * s_i)) if sigma2 > 0 else np.zeros(users)

    W = np.tile(w0, (n_seeds, 1))
    yield W, None

    # Round buffers, reused: each seed draws its round's noise as one
    # contiguous (steps, users, dim) block, so its stream is consumed in the
    # same order as a fresh draw; `noise` views it as (steps, users, seeds, dim).
    Q = problem.Q
    QT = np.ascontiguousarray(Q.transpose(0, 2, 1))
    b = problem.b[:, None, :]
    if sigma2 > 0:
        buf = np.empty((n_seeds, local_steps + 1, users, dim))
        noise = buf.transpose(1, 2, 0, 3)
    else:
        noise = None
    cv = np.empty((users, n_seeds, dim))
    Y = np.empty_like(cv)
    G = np.empty_like(cv)

    for t in itertools.count():
        eta_bar = schedule.value(t)
        eta = eta_bar / local_steps
        if noise is not None:
            for k, gen in enumerate(gens):
                gen.standard_normal(out=buf[k])
            buf *= comp_std[:, None]
        # fresh corrections at the server point, one minibatch each
        np.matmul(W, QT, out=cv)
        cv += b
        if noise is not None:
            cv += noise[0]
        cv_mean = cv.mean(axis=0)
        Y[...] = W
        # in place, the same operations in the same order as
        # Y - eta * (Y Q + b + noise - cv + cv_mean)
        for k in range(1, local_steps + 1):
            np.matmul(Y, Q, out=G)
            G += b
            if noise is not None:
                G += noise[k]
            G -= cv
            G += cv_mean
            G *= eta
            Y -= G
        W = Y.mean(axis=0)
        yield W, Y


def scaffold_train(
    problem: LearnProblem,
    rounds: int,
    schedule: StepSchedule,
    seeds,
    w0: np.ndarray | None = None,
    local_steps: int = 5,
) -> TrainTrace:
    """Train for a fixed number of rounds; returns the gap trajectory
    E||w_t - w*||^2 estimated over the given seeds."""
    _check_keys(rounds=rounds)
    run = _run_scaffold(problem, schedule, seeds, w0, local_steps)
    gap, err = [], []
    for W, _ in itertools.islice(run, rounds + 1):
        sq = np.sum((W - problem.w_star) ** 2, axis=1)
        gap.append(float(np.mean(sq)))
        err.append(float(np.std(sq) / math.sqrt(len(sq))))
    return TrainTrace(gap=np.array(gap), gap_stderr=np.array(err))


def check_gap_bound(
    trace: TrainTrace,
    problem: LearnProblem,
    b_fit: float | None = None,
) -> dict:
    """Fit or verify the decay envelope gap_t <= (b*V + d0)/(t+1).

    V = sigma^2/I * sum_i 1/s_i is the batch-limited noise scale and d0 the
    observed initial gap.  The check uses mean + 2 stderr so seed noise
    cannot fail a true bound, and a relative slack of 1e-9.  Returns the
    smallest feasible constant b_min, the implied bound curve, and a pass
    flag when b_fit was supplied.
    """
    d0 = float(trace.gap[0])
    rel_tol = 1e-9
    V = problem.noise_sigma2 / problem.users * float(np.sum(1.0 / problem.batch_sizes))
    t = trace.rounds.astype(float)
    upper = trace.gap + 2.0 * trace.gap_stderr
    excess = (t + 1.0) * upper - d0
    if V > 0:
        b_min = float(max(0.0, np.max(excess / V)))
    else:
        b_min = 0.0
    report = {"b_min": b_min, "V": V, "d0": d0}
    b_used = b_fit if b_fit is not None else b_min
    report["bound"] = (b_used * V + d0) / (t + 1.0)
    if b_fit is not None:
        scale = np.maximum(d0, b_fit * V)
        # roundoff floor: an exactly-zero claimed bound must not fail on float dust
        eps = np.finfo(float).eps
        dust = problem.dim * (32.0 * eps * (1.0 + float(np.linalg.norm(problem.w_star)))) ** 2
        report["ok"] = bool(
            np.all(upper <= report["bound"] * (1.0 + rel_tol) + rel_tol * scale + dust)
        )
    return report


def unlearn_continue(
    problem: LearnProblem,
    spec: UnlearnSpec,
    schedule: StepSchedule,
    seeds,
    local_steps: int = 5,
    max_rounds: int = 100000,
) -> int:
    """Rounds of continued training (remaining users only) until the
    seed-mean distance to the remaining-users optimum drops to epsilon."""
    leavers = set(spec.leavers)
    _require((leavers < set(range(problem.users)), "leavers must be a proper subset of the users"))
    keep = [i for i in range(problem.users) if i not in leavers]
    rest = restrict_problem(problem, keep)
    _check_keys(rounds=max_rounds)
    run = _run_scaffold(rest, schedule, seeds, problem.w_star, local_steps)
    for t, (W, _) in enumerate(itertools.islice(run, max_rounds + 1)):
        if np.mean(np.sqrt(np.sum((W - rest.w_star) ** 2, axis=1))) <= spec.epsilon:
            return t
    raise RuntimeError(f"unlearning did not reach epsilon within {max_rounds} rounds")


def training_loss_metric(problem: LearnProblem, w: np.ndarray) -> np.ndarray:
    """Per-user gradient norms ||grad F_i(w)||, the loss proxy."""
    return np.linalg.norm(problem.user_gradients(np.asarray(w, dtype=float)), axis=1)


# --- exact per-round attribution ---


def federated_shapley_exact(
    problem: LearnProblem,
    rounds: int,
    schedule: StepSchedule,
    seed: int = 0,
    local_steps: int = 5,
    with_total: bool = False,
):
    """Per-round Shapley attribution of global-loss change, summed over rounds.

    Each round's characteristic function maps a user subset S to the change
    in global loss if only S's updates were aggregated that round; the empty
    set scores 0, and the model then advances with everyone's updates.  Lower
    (more negative) values mean larger contributions.  Exact over all 2^I
    subsets; rejects more than 8 users.  with_total also returns the summed
    grand-coalition value (the total realized loss change, for efficiency
    checks).
    """
    users = problem.users
    _require((users <= 8, "exact attribution limited to 8 users"))
    _check_keys(rounds=rounds)
    # each round's per-user updates, taken from the server model the round started at
    run = itertools.islice(_run_scaffold(problem, schedule, [seed], None, local_steps), rounds + 1)
    updates = [Y[:, 0, :] - W[0] for (W, _), (_, Y) in itertools.pairwise(run)]
    # row m of X marks the members of coalition m; joined[m, i] is m with i
    masks = np.arange(1 << users)
    X = ((masks[:, None] >> np.arange(users)) & 1).astype(bool)
    sizes = X.sum(axis=1)
    joined = masks[:, None] | (1 << np.arange(users))
    fact = [math.factorial(k) for k in range(users + 1)]
    weights = np.array(
        [fact[s] * fact[users - s - 1] / fact[users] for s in range(users)]
    )
    # Shapley weight of i joining m, zero where i is already a member
    coef = np.where(X, 0.0, weights[np.minimum(sizes, users - 1)][:, None])
    # characteristic values summed over rounds; Shapley values are linear in them
    char = np.zeros(1 << users)
    # reconstruct the server trajectory from the collected updates
    w = np.zeros(problem.dim)
    for delta in updates:
        shifted = w + (X[1:] @ delta) / sizes[1:, None]
        value = 0.5 * np.sum((shifted @ problem.q_mean) * shifted, axis=1)
        value += shifted @ problem.b_mean
        char[1:] += value - problem.global_value(w)
        w = w + delta.mean(axis=0)
    phi = np.sum(coef * (char[joined] - char[:, None]), axis=0)
    if with_total:
        return phi, char[-1]
    return phi
