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

import collections
import contextlib
import itertools
import math
import os
import queue
import threading
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .model import _require

__all__ = [
    "LearnConfig",
    "LearnProblem",
    "StepSchedule",
    "TrainTrace",
    "make_problem",
    "restrict_problem",
    "scaffold_train",
    "check_gap_bound",
    "unlearn_continue",
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

    Q has shape (I, n, n) with each slice symmetric positive definite, and the
    problem keeps its symmetric part; b has shape (I, n).  data_sizes are the
    per-user sample counts d_i; batch sizes are s_i = max(1, round(iota * d_i)).
    noise_sigma2 bounds the squared norm of single-sample gradient noise.
    """

    Q: np.ndarray
    b: np.ndarray
    data_sizes: np.ndarray
    iota: float
    noise_sigma2: float

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
        QT = np.transpose(Q, (0, 2, 1))
        self.Q = 0.5 * (Q + QT)
        _require(
            (np.allclose(Q, QT, atol=1e-10), "each Q_i must be symmetric"),
            (np.all(np.linalg.eigvalsh(self.Q)[:, 0] > 0), "each Q_i must be positive definite"),
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

    @cached_property
    def step_cap(self) -> float:  # the stability cap: no schedule may start above it
        return 1.0 / (12.0 * self.smoothness)

    def global_value(self, w: np.ndarray) -> float | np.ndarray:
        """F at one model, or at each row of a (..., dim) stack."""
        return 0.5 * np.sum((w @ self.q_mean) * w, axis=-1) + w @ self.b_mean


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
        Q[i] = base
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


# Each drawing thread needs this many seeds to pay for waking it: on a 2-vCPU VM,
# 300 rounds of 960-normal blocks with a helper took 1.20, 1.31, 1.04, 0.84 and
# 0.72 times those without at 2, 4, 8, 16 and 32 seeds (median of 9).
_MIN_SEEDS_PER_THREAD = 16


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _noise_rounds(gens, shape):
    """Each round's noise, one (seeds, *shape) buffer with block k drawn from
    gens[k], drawn a round ahead: while the caller works on round t, helper
    threads (one per CPU past the first, at least _MIN_SEEDS_PER_THREAD seeds
    each; numpy fills a block without the GIL) take round t+1's blocks off one
    shared deque, on one token each.  Asked for round t+1, the generator draws
    the blocks left and takes one report per helper before it queues round t+2,
    so each stream is read in the same order for any CPU count; it raises a
    block's error once the whole round is done.  Closing it drops the blocks
    left and joins each helper after the block it is drawing."""
    bufs = [np.empty((len(gens), *shape)) for _ in range(2)]
    blocks = [[(gen.standard_normal, buf[k]) for k, gen in enumerate(gens)] for buf in bufs]
    todo, tokens, reports = collections.deque(blocks[0]), queue.SimpleQueue(), queue.SimpleQueue()

    def draw():
        """Fill blocks off the deque until it is empty or one raises; None, or that error."""
        with contextlib.suppress(IndexError):
            while True:
                fill, block = todo.popleft()
                try:
                    fill(out=block)
                except Exception as exc:  # raised in the caller with its round
                    return exc
        return None

    def serve():
        for _ in iter(tokens.get, None):
            reports.put(draw())

    # the first round's token is queued before a helper starts, so each draws from it
    helpers = []
    try:
        for _ in range(min(_cpus(), len(gens) // _MIN_SEEDS_PER_THREAD) - 1):
            tokens.put(True)
            helper = threading.Thread(target=serve, daemon=True)
            helper.start()
            helpers.append(helper)
        for t in itertools.count(1):
            for error in [draw(), *(reports.get() for _ in helpers)]:
                if error is not None:
                    raise error
            todo.extend(blocks[t % 2])
            for _ in helpers:
                tokens.put(True)
            yield bufs[(t - 1) % 2]
    finally:
        todo.clear()
        for _ in helpers:
            tokens.put(None)
        for helper in helpers:
            helper.join()


def _run_scaffold(
    problem: LearnProblem,
    schedule: StepSchedule,
    seeds,
    w0: np.ndarray | None,
    local_steps: int,
):
    """The batched round kernel, run one round per step of the generator.

    Yields W, the seeds' server models, shape (seeds, dim), before the
    first round and after each round.  It never stops; callers take as many
    rounds as they need, and close it (or drop it) to stop the threads that
    draw the noise.
    """
    seed_ids = _seed_list(seeds)
    n_seeds = len(seed_ids)
    _check_keys(local_steps=local_steps, seeds=n_seeds)
    # the rule relating a schedule to a problem; no schedule's stepsize rises
    cap, eta0 = problem.step_cap, schedule.value(0)
    _require((eta0 <= cap * (1.0 + 1e-9), f"stepsize {eta0:.6g} exceeds stability cap {cap:.6g}"))
    dim = problem.dim
    users = problem.users
    if w0 is None:
        w0 = np.zeros(dim)
    w0 = np.asarray(w0, dtype=float)

    gens = [np.random.default_rng(np.random.SeedSequence([s, 0x5343414646])) for s in seed_ids]
    # per-component std so a single sample has squared-norm variance sigma^2
    comp_std = np.sqrt(problem.noise_sigma2 / (dim * problem.batch_sizes))

    W = np.tile(w0, (n_seeds, 1))
    yield W

    # Each seed draws a round's noise as one contiguous (steps, users, dim) block,
    # in a fresh draw's order; `noise` views it as (steps, users, seeds, dim).
    Q = problem.Q
    # b and the noise scale laid out as the arrays they act on, so each pass is contiguous
    b = np.repeat(problem.b[:, None, :], n_seeds, axis=1)
    scale = np.repeat(comp_std, dim)
    cv = np.empty((users, n_seeds, dim))
    Y = np.empty_like(cv)
    G = np.empty_like(cv)

    # without noise comp_std is 0, and adding its zeros changes no value
    drawer = _noise_rounds(gens, (local_steps + 1, users, dim))
    with contextlib.closing(drawer):
        for t in itertools.count():
            eta_bar = schedule.value(t)
            eta = eta_bar / local_steps
            buf = next(drawer)
            flat = buf.reshape(-1, scale.size)
            flat *= scale
            noise = buf.transpose(1, 2, 0, 3)
            # fresh corrections at the server point, one minibatch each
            np.matmul(W, Q, out=cv)
            cv += b
            cv += noise[0]
            cv_mean = cv.mean(axis=0)
            Y[...] = W
            # in place, the same operations in the same order as
            # Y - eta * (Y Q + b + noise - cv + cv_mean)
            for k in range(1, local_steps + 1):
                np.matmul(Y, Q, out=G)
                G += b
                G += noise[k]
                G -= cv
                G += cv_mean
                G *= eta
                Y -= G
            W = Y.mean(axis=0)
            yield W


def scaffold_train(
    problem: LearnProblem,
    rounds: int,
    schedule: StepSchedule,
    seeds,
    w0: np.ndarray | None = None,
    *,
    local_steps: int,
) -> TrainTrace:
    """Train for a fixed number of rounds; returns the gap trajectory
    E||w_t - w*||^2 estimated over the given seeds."""
    _check_keys(rounds=rounds)
    seeds = _seed_list(seeds)
    run = _run_scaffold(problem, schedule, seeds, w0, local_steps)
    # row t holds round t's squared distances, one per seed
    sq = np.empty((rounds + 1, len(seeds)))
    with contextlib.closing(run):
        for t, W in enumerate(itertools.islice(run, rounds + 1)):
            sq[t] = np.sum((W - problem.w_star) ** 2, axis=1)
    return TrainTrace(gap=sq.mean(axis=1), gap_stderr=sq.std(axis=1) / math.sqrt(len(seeds)))


def check_gap_bound(trace: TrainTrace, problem: LearnProblem) -> dict:
    """Fit the decay envelope gap_t <= (b*V + d0)/(t+1) and check it.

    V = sigma^2/I * sum_i 1/s_i is the batch-limited noise scale and d0 the
    observed initial gap; rounds are read at mean + 2 stderr, so seed noise
    cannot fail a true bound.  Returns the smallest feasible constant b_min,
    its bound curve, and ok: every round under the curve, with a relative
    slack of 1e-9.  At V > 0 ok holds by construction (a constant b holds
    exactly when b >= b_min); at V = 0 no constant moves the curve.
    """
    d0 = float(trace.gap[0])
    rel_tol = 1e-9
    V = problem.noise_sigma2 / problem.users * float(np.sum(1.0 / problem.batch_sizes))
    t = trace.rounds.astype(float)
    upper = trace.gap + 2.0 * trace.gap_stderr
    excess = (t + 1.0) * upper - d0
    b_min = float(max(0.0, np.max(excess / V))) if V > 0 else 0.0
    bound = (b_min * V + d0) / (t + 1.0)
    # roundoff floor: an exactly-zero bound must not fail on float dust
    eps = np.finfo(float).eps
    dust = problem.dim * (32.0 * eps * (1.0 + float(np.linalg.norm(problem.w_star)))) ** 2
    ok = bool(np.all(upper <= bound * (1.0 + rel_tol) + rel_tol * max(d0, b_min * V) + dust))
    return {"b_min": b_min, "V": V, "d0": d0, "bound": bound, "ok": ok}


def unlearn_continue(
    problem: LearnProblem,
    leavers,
    epsilon: float,
    schedule: StepSchedule,
    seeds,
    *,
    local_steps: int,
    max_rounds: int = 100000,
) -> int:
    """Rounds of continued training (remaining users only) until the
    seed-mean distance to the remaining-users optimum drops to epsilon."""
    leavers = set(leavers)
    _require(
        (len(leavers) >= 1, "leavers must be nonempty"),
        (epsilon > 0.0, "epsilon must be positive"),
        (leavers < set(range(problem.users)), "leavers must be a proper subset of the users"),
        (max_rounds >= 1, "max_rounds must be positive"),
    )
    rest = restrict_problem(problem, [i for i in range(problem.users) if i not in leavers])
    run = _run_scaffold(rest, schedule, seeds, problem.w_star, local_steps)
    with contextlib.closing(run):
        for t, W in enumerate(itertools.islice(run, max_rounds + 1)):
            if np.mean(np.sqrt(np.sum((W - rest.w_star) ** 2, axis=1))) <= epsilon:
                return t
    raise RuntimeError(f"unlearning did not reach epsilon within {max_rounds} rounds")


# --- exact attribution ---


def federated_shapley_exact(problem: LearnProblem) -> np.ndarray:
    """Exact Shapley values of the users' coalition optima.

    Coalition S is worth v(S) = F(w*_S), the global objective F at
    w*_S = -(sum_S Q_i)^-1 sum_S b_i, the optimum of its members' objectives;
    the empty coalition is worth F(0) = 0, so the values sum to F(w*).  Lower
    (more negative) values mean larger contributions.  Exact over all 2^I
    subsets, with no training; rejects more than 8 users.
    """
    users = problem.users
    _require((users <= 8, "exact attribution limited to 8 users"))
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
    # every nonempty coalition's optimum, in one batched solve of its summed terms
    members = X[1:].astype(float)
    hessians = np.einsum("mi,ijk->mjk", members, problem.Q)
    w = -np.linalg.solve(hessians, (members @ problem.b)[..., None])[..., 0]
    char = np.zeros(1 << users)
    char[1:] = problem.global_value(w)
    return np.sum(coef * (char[joined] - char[:, None]), axis=0)
