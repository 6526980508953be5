"""Loop forms of the learning lab's vectorized kernels, kept as test oracles.

`run_scaffold_loop` is the round loop of `learning._run_scaffold` written with
`einsum` and a fresh array per operation; `gap_per_round` forms the statistics
of `scaffold_train` one round at a time; `shapley_loop` is the per-coalition
loop of `federated_shapley_exact`, each coalition's value taken from its
restricted problem.  `expected_gap_loop` shares no code with the kernel: it
gives the distribution of a seed's squared distance from the round map's mean
and covariance, with no sampling.  Tests compare the library against them.
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


def expected_gap_loop(problem, rounds, schedule, w0, local_steps):
    """The mean and variance of a seed's ||w_t - w*||^2 under the lab's round
    kernel, for t = 0 .. rounds, with no sampling.

    At stepsize eta = eta_bar / K per local step, with A_i = I - eta Q_i,
    S_i = sum_{k<K} A_i^k and S = mean_i S_i, round t maps the server model
    as w' = M w + m + z with M = mean_i (A_i^K - eta S_i (Qbar - Q_i)) and
    m = -eta S bbar.  The noise z is zero-mean Gaussian: each user's
    correction and local steps draw K + 1 vectors of per-component variance
    v_i = sigma^2 / (dim s_i), so its covariance is
    (eta / I)^2 sum_i v_i [(S_i - S)(S_i - S)' + sum_{k<K} A_i^k (A_i^k)'].
    The model is then Gaussian with mean mu and covariance Sigma, where
    mu' = M mu + m and Sigma' = M Sigma M' + cov z; with delta = mu - w*, the
    squared distance has mean |delta|^2 + tr Sigma and variance
    2 tr Sigma^2 + 4 delta' Sigma delta.
    """
    users, dim = problem.users, problem.dim
    Q, q_bar, b_bar = problem.Q, problem.Q.mean(axis=0), problem.b.mean(axis=0)
    v = problem.noise_sigma2 / (dim * problem.batch_sizes)
    eye = np.eye(dim)
    mean = np.asarray(w0, dtype=float).copy()
    cov = np.zeros((dim, dim))
    gap, var = [], []
    for t in range(rounds + 1):
        delta = mean - problem.w_star
        gap.append(delta @ delta + np.trace(cov))
        var.append(2.0 * np.trace(cov @ cov) + 4.0 * delta @ cov @ delta)
        if t == rounds:
            break
        eta = schedule.value(t) / local_steps
        powers = []  # powers[i][k] = A_i^k, k = 0 .. K
        for i in range(users):
            step = eye - eta * Q[i]
            powers.append([eye])
            for _ in range(local_steps):
                powers[i].append(step @ powers[i][-1])
        S = [sum(pw[:local_steps]) for pw in powers]
        S_bar = sum(S) / users
        M = sum(powers[i][local_steps] - eta * S[i] @ (q_bar - Q[i]) for i in range(users)) / users
        noise = np.zeros((dim, dim))
        for i in range(users):
            spread = S[i] - S_bar
            noise += v[i] * (spread @ spread.T + sum(A @ A.T for A in powers[i][:local_steps]))
        mean = M @ mean - eta * S_bar @ b_bar
        cov = M @ cov @ M.T + (eta / users) ** 2 * noise
    return np.array(gap), np.array(var)
