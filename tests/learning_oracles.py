"""Loop forms of the learning lab's vectorized kernels, kept as test oracles.

`run_scaffold_loop` is the round loop of `learning._run_scaffold` written with
`einsum` and a fresh array per operation; `gap_per_round` forms the statistics
of `scaffold_train` one round at a time; `shapley_loop` is the per-coalition
loop of `federated_shapley_exact`, each coalition's value taken from its
restricted problem; `training_loss_metric` is the per-user gradient norm.
Tests compare the library against them.
"""
import contextlib
import itertools
import math

import numpy as np

from fedincentives.learning import TrainTrace, _run_scaffold, _seed_list, restrict_problem


def run_scaffold_loop(problem, rounds, schedule, seeds, w0, local_steps, reference,
                      stop_norm=None):
    """The trace and stop round that `learning._run_scaffold`'s server models
    give, from the same arguments, for a schedule under the stability cap: the
    library's cap check has its own tests, and the oracle repeats no rule."""
    seed_ids = _seed_list(seeds)
    n_seeds = len(seed_ids)
    dim = problem.dim
    users = problem.users
    w0 = np.zeros(dim) if w0 is None else np.asarray(w0, dtype=float)

    gens = [np.random.default_rng(np.random.SeedSequence([s, 0x5343414646])) for s in seed_ids]
    sigma2 = problem.noise_sigma2
    s_i = problem.batch_sizes
    comp_std = np.sqrt(sigma2 / (dim * s_i)) if sigma2 > 0 else np.zeros(users)

    W = np.tile(w0, (n_seeds, 1))
    sq = np.sum((W - reference) ** 2, axis=1)
    gap_mean = [float(np.mean(sq))]
    gap_err = [float(np.std(sq) / math.sqrt(n_seeds))]
    dist_mean = [float(np.mean(np.sqrt(sq)))]

    stop_round = None
    if stop_norm is not None and dist_mean[0] <= stop_norm:
        stop_round = 0

    t = 0
    while t < rounds and stop_round is None:
        eta = schedule.value(t) / local_steps
        if sigma2 > 0:
            noise = np.empty((local_steps + 1, users, n_seeds, dim))
            for k, gen in enumerate(gens):
                noise[:, :, k, :] = gen.standard_normal((local_steps + 1, users, dim))
            noise *= comp_std[None, :, None, None]
        else:
            noise = None
        grad_at_w = np.einsum("ide,se->isd", problem.Q, W) + problem.b[:, None, :]
        cv = grad_at_w + (noise[0] if noise is not None else 0.0)
        cv_mean = cv.mean(axis=0)
        Y = np.broadcast_to(W, (users, n_seeds, dim)).copy()
        for k in range(1, local_steps + 1):
            G = np.einsum("isd,ide->ise", Y, problem.Q) + problem.b[:, None, :]
            if noise is not None:
                G = G + noise[k]
            Y = Y - eta * (G - cv + cv_mean[None])
        W = Y.mean(axis=0)
        t += 1
        sq = np.sum((W - reference) ** 2, axis=1)
        gap_mean.append(float(np.mean(sq)))
        gap_err.append(float(np.std(sq) / math.sqrt(n_seeds)))
        dist_mean.append(float(np.mean(np.sqrt(sq))))
        if stop_norm is not None and dist_mean[-1] <= stop_norm:
            stop_round = t

    trace = TrainTrace(
        gap=np.array(gap_mean),
        gap_stderr=np.array(gap_err),
    )
    return trace, stop_round


def gap_per_round(problem, rounds, schedule, seeds, local_steps):
    """`scaffold_train`'s trace, formed from `_run_scaffold`'s server models
    as each round ends: that round's squared distances to w*, then np.mean
    and np.std / sqrt(n) over them."""
    gap, err = [], []
    run = _run_scaffold(problem, schedule, seeds, None, local_steps)
    with contextlib.closing(run):
        for W in itertools.islice(run, rounds + 1):
            sq = np.sum((W - problem.w_star) ** 2, axis=1)
            gap.append(float(np.mean(sq)))
            err.append(float(np.std(sq) / math.sqrt(len(sq))))
    return TrainTrace(gap=np.array(gap), gap_stderr=np.array(err))


def training_loss_metric(problem, w):
    """Per-user gradient norms ||grad F_i(w)|| = ||Q_i w + b_i||, the loss proxy."""
    return np.linalg.norm(problem.Q @ np.asarray(w, dtype=float) + problem.b, axis=1)


def shapley_loop(problem):
    """Shapley values from a loop over coalitions: S is worth the global
    objective at the optimum of the problem restricted to S, and the empty
    coalition 0."""
    users = problem.users
    fact = [math.factorial(k) for k in range(users + 1)]
    weights = [fact[s] * fact[users - s - 1] / fact[users] for s in range(users)]
    char = np.zeros(1 << users)
    for mask in range(1, 1 << users):
        members = [i for i in range(users) if (mask >> i) & 1]
        char[mask] = problem.global_value(restrict_problem(problem, members).w_star)
    phi = np.zeros(users)
    for i in range(users):
        for mask in range(1 << users):
            if (mask >> i) & 1:
                continue
            size = bin(mask).count("1")
            phi[i] += weights[size] * (char[mask | (1 << i)] - char[mask])
    return phi
