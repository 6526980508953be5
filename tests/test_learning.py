"""Synthetic training lab: convergence shapes, unlearning, attribution."""
import itertools

import numpy as np
import pytest
from learning_oracles import run_scaffold_loop, shapley_loop

from fedincentives.learning import (
    LearnConfig,
    LearnProblem,
    StepSchedule,
    UnlearnSpec,
    check_gap_bound,
    federated_shapley_exact,
    make_problem,
    restrict_problem,
    scaffold_train,
    training_loss_metric,
    unlearn_continue,
)
from fedincentives.learning import _run_scaffold


def _problem(seed=0, **kw):
    base = dict(users=6, dim=8, data_size=32, iota=0.25, noise_sigma2=0.0,
                mu=0.5, condition=4.0, hessian_spread=0.2, rotate=True)
    base.update(kw)
    return make_problem(LearnConfig(**base), seed)


def _collected_updates(problem, rounds, schedule, seed, local_steps=5):
    """One seed's per-user update of each round, taken from the round
    generator: that round's local models less the server model it started at."""
    run = _run_scaffold(problem, schedule, [seed], None, local_steps)
    W_prev, _ = next(run)
    updates = []
    for W, Y in itertools.islice(run, rounds):
        updates.append(Y[:, 0, :] - W_prev[0])
        W_prev = W
    return updates


def test_make_problem_closed_forms():
    prob = _problem()
    # stationarity of the averaged objective at w*
    grad = prob.q_mean @ prob.w_star + prob.b_mean
    assert np.linalg.norm(grad) < 1e-10
    assert prob.mu > 0
    assert prob.smoothness >= prob.mu
    assert prob.batch_sizes.tolist() == [8] * 6


def test_make_problem_determinism():
    a = _problem(seed=11)
    b = _problem(seed=11)
    assert np.array_equal(a.Q, b.Q) and np.array_equal(a.b, b.b)
    c = _problem(seed=12)
    assert not np.array_equal(a.Q, c.Q)


def test_problem_validation():
    with pytest.raises(ValueError):
        LearnProblem(Q=np.ones((2, 3, 3)), b=np.zeros((2, 3)), data_sizes=np.array([4, 4]))
    asym = np.tile(np.eye(3), (2, 1, 1))
    asym[0, 0, 1] = 0.5
    with pytest.raises(ValueError):
        LearnProblem(Q=asym, b=np.zeros((2, 3)), data_sizes=np.array([4, 4]))
    with pytest.raises(ValueError):
        make_problem(LearnConfig(users=0, dim=4, data_size=8, noise_sigma2=0.0), 0)
    Q = np.tile(np.eye(3), (2, 1, 1))
    b = np.zeros((2, 3))
    sizes = np.array([4, 4])
    with pytest.raises(ValueError, match="^Q must be finite"):
        LearnProblem(Q=np.where(Q > 0, np.nan, 0.0), b=b, data_sizes=sizes)
    with pytest.raises(ValueError, match="^b must be finite"):
        LearnProblem(Q=Q, b=np.full((2, 3), np.inf), data_sizes=sizes)
    with pytest.raises(ValueError, match="^noise_sigma2 must"):
        LearnProblem(Q=Q, b=b, data_sizes=sizes, noise_sigma2=np.inf)


@pytest.mark.parametrize(
    "key, value",
    [
        ("users", 0), ("dim", 0), ("data_size", 0), ("iota", 0.0), ("iota", np.nan),
        ("noise_sigma2", -1.0), ("noise_sigma2", np.nan), ("noise_sigma2", np.inf),
        ("mu", 0.0), ("mu", np.nan), ("mu", np.inf),
        ("condition", 0.5), ("condition", np.inf), ("condition", np.nan),
        ("hessian_spread", 1.0), ("hessian_spread", np.nan),
        ("b_scale", np.nan), ("b_scale", np.inf),
    ],
)
def test_make_problem_states_its_rules(key, value):
    """Each LearnConfig field out of its domain, NaN included, is refused by
    name before make_problem draws; condition 0.5 must not be built as
    condition 1."""
    with pytest.raises(ValueError, match=f"^{key} must"):
        _problem(**{key: value})


@pytest.mark.parametrize(
    "args, key",
    [
        (("constant", np.nan), "step_c"),
        (("constant", np.inf), "step_c"),
        (("inverse_t", 0.01, np.nan), "step_shift"),
        (("inverse_t", 0.01, -1.0), "step_shift"),
        (("cosine", 0.01), "schedule"),
    ],
)
def test_schedule_states_its_rules(args, key):
    """A NaN stepsize or shift is refused when the schedule is built, before
    it can give NaN gaps from scaffold_train."""
    with pytest.raises(ValueError, match=f"^{key} must"):
        StepSchedule(*args)


@pytest.mark.parametrize(
    "rounds, local_steps, seeds, key",
    [(0, 5, [0], "rounds"), (3, 0, [0], "local_steps"), (3, 5, [], "seeds"),
     (3, 5, 0, "seeds")],
)
def test_training_run_counts_positive(rounds, local_steps, seeds, key):
    prob = _problem()
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    with pytest.raises(ValueError, match=f"^{key} must be positive"):
        scaffold_train(prob, rounds, sch, seeds, local_steps=local_steps)


def test_restrict_problem_optimum_moves():
    prob = _problem(b_scale=2.0)
    rest = restrict_problem(prob, [0, 2, 4])
    assert rest.users == 3
    grad = rest.q_mean @ rest.w_star + rest.b_mean
    assert np.linalg.norm(grad) < 1e-10
    with pytest.raises(ValueError):
        restrict_problem(prob, [])


def test_schedule_validation_and_values():
    prob = _problem()
    cap = 1.0 / (12.0 * prob.smoothness)
    scaffold_train(prob, 1, StepSchedule("constant", cap), [0])
    with pytest.raises(ValueError, match="exceeds stability cap"):
        scaffold_train(prob, 1, StepSchedule("constant", cap * 1.5), [0])
    sch = StepSchedule("inverse_t", 12.0 * cap, 11.0)
    scaffold_train(prob, 1, sch, [0])  # first value exactly at the cap
    assert sch.value(0) == pytest.approx(cap)
    assert sch.value(9) == pytest.approx(12.0 * cap / 21.0)
    with pytest.raises(ValueError, match="^schedule must"):
        StepSchedule("linear", cap)
    with pytest.raises(ValueError, match="^step_c must"):
        StepSchedule("constant", -1.0)


def test_fixed_point_stays_at_optimum():
    prob = _problem(noise_sigma2=0.0)
    sch = StepSchedule("constant", 1.0 / (12.0 * prob.smoothness))
    trace = scaffold_train(prob, 20, sch, [0], w0=prob.w_star)
    assert np.all(trace.gap < 1e-24)


def test_noiseless_geometric_contraction():
    prob = _problem(noise_sigma2=0.0)
    eta = 1.0 / (12.0 * prob.smoothness)
    sch = StepSchedule("constant", eta)
    w0 = prob.w_star + np.ones(prob.dim) / np.sqrt(prob.dim)
    trace = scaffold_train(prob, 60, sch, [0], w0=w0)
    target = 1.0 - prob.mu * eta / 2.0
    gaps = trace.gap
    assert np.all(np.diff(gaps) <= 0.0)
    for t in range(len(gaps) - 1):
        if gaps[t] < 1e-20:
            break
        assert gaps[t + 1] <= gaps[t] * (target + 1e-6)


def test_inverse_t_scaled_gap_bounded():
    prob = make_problem(LearnConfig(users=10, dim=16, data_size=64, iota=0.25,
                                    noise_sigma2=1e-2, mu=1.0, condition=1.0), 0)
    sch = StepSchedule("inverse_t", 2.0, 23.0)
    trace = scaffold_train(prob, 500, sch, range(40), w0=prob.w_star)
    scaled = (trace.rounds[100:] + 1.0) * trace.gap[100:]
    assert np.max(scaled) <= 2.0 * scaled[0]


def test_gap_bound_fit_and_verification():
    prob = make_problem(LearnConfig(users=8, dim=8, data_size=16, iota=0.25,
                                    noise_sigma2=1e-2, mu=1.0, condition=1.0), 2)
    sch = StepSchedule("inverse_t", 2.0, 23.0)
    trace = scaffold_train(prob, 300, sch, range(40), w0=prob.w_star)
    rep = check_gap_bound(trace, prob)
    assert rep["V"] == pytest.approx(1e-2 / 8 * 8 / 4.0)
    assert rep["b_min"] > 0
    ok = check_gap_bound(trace, prob, b_fit=rep["b_min"] * 1.001)
    assert ok["ok"]
    bad = check_gap_bound(trace, prob, b_fit=rep["b_min"] / 4.0)
    assert not bad["ok"]
    assert len(rep["bound"]) == len(trace.gap)


def test_gap_bound_noiseless_zero_constant():
    prob = _problem(noise_sigma2=0.0)
    sch = StepSchedule("constant", 1.0 / (12.0 * prob.smoothness))
    trace = scaffold_train(prob, 30, sch, [0], w0=prob.w_star)
    rep = check_gap_bound(trace, prob, b_fit=0.0)
    assert rep["b_min"] == 0.0
    assert rep["ok"]


def test_doubling_batches_halves_noise_term():
    """Same seeds make the comparison exact: iterates are linear in the
    injected noise, so scaling its std by 1/sqrt(2) scales the gap by 1/2."""
    kw = dict(users=8, dim=8, iota=0.25, noise_sigma2=2e-2, mu=1.0, condition=1.0)
    sch = StepSchedule("constant", 1.0 / 24.0)
    floors = []
    for ds in (16, 32):
        prob = make_problem(LearnConfig(data_size=ds, **kw), 4)
        trace = scaffold_train(prob, 160, sch, range(30), w0=prob.w_star)
        floors.append(float(np.mean(trace.gap[80:])))
    assert floors[1] / floors[0] == pytest.approx(0.5, abs=1e-9)
    # and independent seeds still land within the 20% window
    prob = make_problem(LearnConfig(data_size=16, **kw), 4)
    trace = scaffold_train(prob, 160, sch, range(60, 90), w0=prob.w_star)
    indep = float(np.mean(trace.gap[80:]))
    assert 0.4 <= floors[1] / indep <= 0.6


def test_plateau_scales_with_noise_variance():
    kw = dict(users=8, dim=8, data_size=16, iota=0.25, mu=1.0, condition=1.0)
    sch = StepSchedule("constant", 1.0 / 24.0)
    plateaus = []
    for sig2 in (1e-2, 4e-2):
        prob = make_problem(LearnConfig(noise_sigma2=sig2, **kw), 5)
        trace = scaffold_train(prob, 160, sch, range(30), w0=prob.w_star)
        plateaus.append(float(np.mean(trace.gap[80:])))
    assert plateaus[1] / plateaus[0] == pytest.approx(4.0, abs=1e-9)


def test_unlearning_zero_gradient_leaver_free():
    prob = _problem(users=5, noise_sigma2=1e-3)
    # per-user gradients at the target optimum: sum zero, leaver exactly zero
    rng = np.random.default_rng(3)
    target = rng.standard_normal(prob.dim)
    g = rng.standard_normal((5, prob.dim))
    g[3] = 0.0
    others = [0, 1, 2, 4]
    g[others] -= g[others].mean(axis=0)
    b = g - np.einsum("ijk,k->ij", prob.Q, target)
    shifted = LearnProblem(Q=prob.Q, b=b, data_sizes=prob.data_sizes,
                           iota=prob.iota, noise_sigma2=prob.noise_sigma2)
    assert np.linalg.norm(shifted.w_star - target) < 1e-9
    rest = restrict_problem(shifted, [0, 1, 2, 4])
    assert np.linalg.norm(rest.w_star - shifted.w_star) < 1e-9
    sch = StepSchedule("constant", 1.0 / (12.0 * shifted.smoothness))
    rounds = unlearn_continue(shifted, UnlearnSpec(leavers=(3,), epsilon=1e-6), sch, [0])
    assert rounds == 0


def test_unlearning_rounds_track_leaver_burden():
    """Leaver sets with 4x the squared gradient mass need more rounds."""
    base = make_problem(LearnConfig(users=6, dim=8, data_size=32, iota=0.25,
                                    noise_sigma2=1e-6, mu=1.0, condition=1.0), 7)
    u = np.zeros(base.dim)
    u[0] = 1.0
    r = np.array([1.0, 2.0, 1.5, 0.5, 1.2, -6.2])  # sums to zero: w* = 0
    prob = LearnProblem(Q=base.Q, b=np.outer(r, u), data_sizes=base.data_sizes,
                        iota=0.25, noise_sigma2=1e-6)
    assert np.linalg.norm(prob.w_star) < 1e-12
    sch = StepSchedule("constant", 1.0 / 24.0)
    t_small = unlearn_continue(prob, UnlearnSpec(leavers=(0,), epsilon=0.02), sch, range(20))
    t_big = unlearn_continue(prob, UnlearnSpec(leavers=(1,), epsilon=0.02), sch, range(20))
    assert t_big > t_small


def test_unlearning_epsilon_halving_rate():
    """In the noise-dominated 1/t regime, halving epsilon costs about 4x
    the rounds (within a factor of 2)."""
    base = make_problem(LearnConfig(users=4, dim=8, data_size=4, iota=0.25, noise_sigma2=1.0,
                                    mu=1.0, condition=1.0, b_scale=1.0), 9)
    sch = StepSchedule("inverse_t", 2.0, 23.0)
    t1 = unlearn_continue(base, UnlearnSpec(leavers=(0,), epsilon=0.015), sch, range(40))
    t2 = unlearn_continue(base, UnlearnSpec(leavers=(0,), epsilon=0.0075), sch, range(40))
    assert t1 >= 100  # both targets sit below the transient, in the noise tail
    assert 2.0 <= t2 / t1 <= 8.0


def test_unlearning_budget_exhaustion_raises():
    prob = _problem(users=4, noise_sigma2=0.0, b_scale=5.0)
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    with pytest.raises(RuntimeError):
        unlearn_continue(prob, UnlearnSpec(leavers=(0,), epsilon=1e-9), sch, [0],
                         max_rounds=3)


def test_unlearn_spec_validation():
    prob = _problem(users=4)
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    with pytest.raises(ValueError, match="^leavers must be nonempty"):
        UnlearnSpec(leavers=(), epsilon=0.1)
    with pytest.raises(ValueError, match="^leavers must be a proper subset"):
        unlearn_continue(prob, UnlearnSpec(leavers=(0, 1, 2, 3), epsilon=0.1), sch, [0])
    for epsilon in (0.0, np.nan):
        with pytest.raises(ValueError, match="^epsilon must"):
            UnlearnSpec(leavers=(0,), epsilon=epsilon)


def test_loss_metric_matches_finite_differences():
    prob = _problem(users=3)
    w = np.linspace(-1.0, 1.0, prob.dim)
    losses = training_loss_metric(prob, w)
    eps = 1e-6
    for i in range(prob.users):
        g = np.empty(prob.dim)
        for k in range(prob.dim):
            e = np.zeros(prob.dim)
            e[k] = eps
            fp = 0.5 * (w + e) @ prob.Q[i] @ (w + e) + prob.b[i] @ (w + e)
            fm = 0.5 * (w - e) @ prob.Q[i] @ (w - e) + prob.b[i] @ (w - e)
            g[k] = (fp - fm) / (2 * eps)
        assert np.linalg.norm(g) == pytest.approx(losses[i], abs=1e-6)
    # at a user's own minimizer the metric vanishes
    w_own = np.linalg.solve(prob.Q[1], -prob.b[1])
    assert training_loss_metric(prob, w_own)[1] < 1e-10


def test_loss_metric_identical_users_equal():
    prob = _problem(users=4, hessian_spread=0.0, rotate=False)
    b = np.tile(prob.b[0], (4, 1))
    same = LearnProblem(Q=prob.Q, b=b, data_sizes=prob.data_sizes, iota=prob.iota)
    losses = training_loss_metric(same, same.w_star)
    assert np.allclose(losses, losses[0])


def test_shapley_single_user_gets_everything():
    prob = _problem(users=1, noise_sigma2=0.0)
    sch = StepSchedule("constant", 1.0 / (12.0 * prob.smoothness))
    phi, total = federated_shapley_exact(prob, 6, sch, with_total=True)
    assert phi[0] == pytest.approx(total, rel=1e-12)
    assert total < 0  # training from w=0 reduces the global loss


def test_shapley_symmetry_for_identical_users():
    base = _problem(users=4, noise_sigma2=0.0)
    Q = base.Q.copy()
    b = base.b.copy()
    Q[1], b[1] = Q[0], b[0]
    dup = LearnProblem(Q=Q, b=b, data_sizes=base.data_sizes, iota=base.iota)
    sch = StepSchedule("constant", 1.0 / (12.0 * dup.smoothness))
    phi = federated_shapley_exact(dup, 8, sch)
    assert phi[0] == pytest.approx(phi[1], abs=1e-12)


def test_shapley_efficiency_random_problems():
    for seed in range(20):
        learn = LearnConfig(users=int(3 + seed % 4), dim=6, data_size=16, noise_sigma2=1e-3,
                            mu=0.5, condition=3.0, hessian_spread=0.3, rotate=True)
        prob = make_problem(learn, seed)
        sch = StepSchedule("inverse_t", 20.0 / (12.0 * prob.smoothness), 19.0)
        phi, total = federated_shapley_exact(prob, 5, sch, seed=seed, with_total=True)
        assert phi.sum() == pytest.approx(total, abs=1e-9 * max(1.0, abs(total)))


def test_shapley_rejects_large_coalitions():
    prob = _problem(users=9)
    sch = StepSchedule("constant", 1.0 / (12.0 * prob.smoothness))
    with pytest.raises(ValueError):
        federated_shapley_exact(prob, 2, sch)


def test_shapley_matches_the_coalition_loop():
    for seed in range(8):
        learn = LearnConfig(users=seed + 1, dim=6, data_size=16, noise_sigma2=1e-3,
                            mu=0.5, condition=3.0, hessian_spread=0.3, rotate=True)
        prob = make_problem(learn, seed)
        sch = StepSchedule("inverse_t", 20.0 / (12.0 * prob.smoothness), 19.0)
        phi, total = federated_shapley_exact(prob, 5, sch, seed=seed, with_total=True)
        updates = _collected_updates(prob, 5, sch, seed)
        ref_phi, ref_total = shapley_loop(prob, updates)
        assert np.max(np.abs(phi - ref_phi)) <= 1e-12 * np.max(np.abs(ref_phi))
        assert total == pytest.approx(ref_total, rel=1e-12)


# --- the batched round kernel against its loop form ---

# With Q_i = mu I every contraction term but one is an exact zero, so the
# batched kernel must give the loop's bits; rotated, heterogeneous Q_i sum in
# another order, which moves the last digits.
SCALAR = dict(condition=1.0)
ROTATED = dict(condition=10.0, hessian_spread=0.5, rotate=True)
KERNEL_SHAPES = [
    pytest.param(SCALAR, 0.0, id="scalar"),
    pytest.param(ROTATED, 1e-12, id="rotated"),
]


def _kernel_problem(shape, noise_sigma2=1e-2):
    learn = LearnConfig(users=5, dim=8, data_size=16, noise_sigma2=noise_sigma2, mu=1.0, **shape)
    return make_problem(learn, 1)


def _assert_matches(new, ref, rtol, scale=None):
    if rtol == 0.0:
        assert np.array_equal(new, ref)
    else:
        bound = rtol * (np.abs(ref) if scale is None else scale)
        assert np.all(np.abs(new - ref) <= bound)


@pytest.mark.parametrize("noise_sigma2", [0.0, 1e-2])
@pytest.mark.parametrize("shape, rtol", KERNEL_SHAPES)
def test_scaffold_train_matches_the_loop_kernel(shape, rtol, noise_sigma2):
    prob = _kernel_problem(shape, noise_sigma2)
    sch = StepSchedule("inverse_t", 1.0 / prob.smoothness, 11.0)
    trace = scaffold_train(prob, 200, sch, range(6))
    ref, _, _ = run_scaffold_loop(prob, 200, sch, range(6), None, 5, prob.w_star)
    _assert_matches(trace.gap, ref.gap, rtol)
    # without noise the seeds agree and the stderr is rounding dust
    _assert_matches(trace.gap_stderr, ref.gap_stderr, rtol, scale=ref.gap)


@pytest.mark.parametrize("shape", [SCALAR, ROTATED], ids=["scalar", "rotated"])
def test_unlearn_stop_round_matches_the_loop_kernel(shape):
    prob = _kernel_problem(shape)
    rest = restrict_problem(prob, [1, 3, 4])
    epsilon = 0.1 * float(np.linalg.norm(prob.w_star - rest.w_star))
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    rounds = unlearn_continue(prob, UnlearnSpec(leavers=(0, 2), epsilon=epsilon), sch, range(6))
    _, ref, _ = run_scaffold_loop(rest, 100000, sch, range(6), prob.w_star, 5, rest.w_star,
                                  stop_norm=epsilon)
    assert rounds == ref > 0


@pytest.mark.parametrize("shape, rtol", KERNEL_SHAPES)
def test_collected_updates_match_the_loop_kernel(shape, rtol):
    prob = _kernel_problem(shape)
    sch = StepSchedule("inverse_t", 1.0 / prob.smoothness, 11.0)
    updates = _collected_updates(prob, 40, sch, 4)
    _, _, ref = run_scaffold_loop(prob, 40, sch, [4], None, 5, prob.w_star, collect_updates=True)
    assert len(updates) == len(ref) == 40
    for new, old in zip(updates, ref):
        _assert_matches(new, old, rtol, scale=np.max(np.abs(old)))


def test_joint_seeds_average_the_single_seed_runs():
    """Each seed's trajectory depends on its own noise stream only, so a
    joint run's gap is the mean of the single-seed gaps; a noise buffer read
    along the wrong axis would mix the streams."""
    prob = _kernel_problem(ROTATED)
    sch = StepSchedule("inverse_t", 1.0 / prob.smoothness, 11.0)
    joint = scaffold_train(prob, 100, sch, [0, 3, 7])
    single = np.mean([scaffold_train(prob, 100, sch, [s]).gap for s in (0, 3, 7)], axis=0)
    np.testing.assert_allclose(joint.gap, single, rtol=1e-14, atol=0.0)


# --- pinned outputs ---

# No CLI output covers unlearning or attribution, so their results are pinned
# here, bit for bit: any change to the round kernel's operations or noise
# streams, or to the statistic a caller reads from it, moves them.
PINNED_UNLEARN_ROUNDS = {
    ("scalar", (0, 2)): 74,
    ("scalar", (4,)): 47,
    ("rotated", (0, 2)): 342,
    ("rotated", (4,)): 272,
}
PINNED_SHAPLEY = {
    "scalar": (
        ["-0x1.943b2bd3f93e0p-3", "-0x1.9497367e25236p-3",
         "-0x1.995db51bfefe1p-3", "-0x1.90eb5e32f0341p-3"],
        "-0x1.94c6dd684364ep-1",
    ),
    "rotated": (
        ["-0x1.1f1ac6414da03p-7", "-0x1.1aaf22b80eb23p-7",
         "-0x1.20ea925d07e1fp-7", "-0x1.1db051a7661f9p-7"],
        "-0x1.1e19333f72950p-5",
    ),
}


@pytest.mark.parametrize("name, shape", [("scalar", SCALAR), ("rotated", ROTATED)])
def test_unlearn_stop_rounds_are_pinned(name, shape):
    prob = _kernel_problem(shape)
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    for leavers in ((0, 2), (4,)):
        rounds = unlearn_continue(prob, UnlearnSpec(leavers=leavers, epsilon=0.05), sch, range(6))
        assert rounds == PINNED_UNLEARN_ROUNDS[name, leavers]


@pytest.mark.parametrize("name, shape", [("scalar", SCALAR), ("rotated", ROTATED)])
def test_shapley_values_are_pinned(name, shape):
    learn = LearnConfig(users=4, dim=6, data_size=16, noise_sigma2=1e-3, mu=0.5, **shape)
    prob = make_problem(learn, 2)
    sch = StepSchedule("inverse_t", 20.0 / (12.0 * prob.smoothness), 19.0)
    phi, total = federated_shapley_exact(prob, 5, sch, seed=3, with_total=True)
    want_phi, want_total = PINNED_SHAPLEY[name]
    assert phi.tobytes() == np.array([float.fromhex(h) for h in want_phi]).tobytes()
    assert np.float64(total).tobytes() == np.float64(float.fromhex(want_total)).tobytes()
