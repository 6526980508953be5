"""Synthetic training lab: convergence shapes, unlearning, attribution."""
import itertools
import sys
import threading
import time
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from learning_oracles import expected_gap_loop, gap_per_round, run_scaffold_loop, shapley_loop

from fedincentives.learning import (
    LearnConfig,
    LearnProblem,
    StepSchedule,
    check_gap_bound,
    federated_shapley_exact,
    make_problem,
    restrict_problem,
    scaffold_train,
    unlearn_continue,
)
from fedincentives import learning
from fedincentives.learning import _run_scaffold


def _problem(seed=0, **kw):
    base = dict(users=6, dim=8, data_size=32, iota=0.25, noise_sigma2=0.0,
                mu=0.5, condition=4.0, hessian_spread=0.2, rotate=True)
    base.update(kw)
    return make_problem(LearnConfig(**base), seed)


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
        LearnProblem(Q=np.ones((2, 3, 3)), b=np.zeros((2, 3)), data_sizes=np.array([4, 4]),
                     iota=0.25, noise_sigma2=0.0)
    asym = np.tile(np.eye(3), (2, 1, 1))
    asym[0, 0, 1] = 0.5
    with pytest.raises(ValueError):
        LearnProblem(Q=asym, b=np.zeros((2, 3)), data_sizes=np.array([4, 4]),
                     iota=0.25, noise_sigma2=0.0)
    with pytest.raises(ValueError):
        make_problem(LearnConfig(users=0, dim=4, data_size=8, noise_sigma2=0.0), 0)
    Q = np.tile(np.eye(3), (2, 1, 1))
    b = np.zeros((2, 3))
    sizes = np.array([4, 4])
    with pytest.raises(ValueError, match="^Q must be finite"):
        LearnProblem(Q=np.where(Q > 0, np.nan, 0.0), b=b, data_sizes=sizes,
                     iota=0.25, noise_sigma2=0.0)
    with pytest.raises(ValueError, match="^b must be finite"):
        LearnProblem(Q=Q, b=np.full((2, 3), np.inf), data_sizes=sizes, iota=0.25, noise_sigma2=0.0)
    with pytest.raises(ValueError, match="^noise_sigma2 must"):
        LearnProblem(Q=Q, b=b, data_sizes=sizes, noise_sigma2=np.inf, iota=0.25)


def test_problem_holds_the_symmetric_part_of_q(rng):
    """A Q symmetric only to within the rule's tolerance is held as its
    symmetric part, so both products of the round kernel read one Hessian,
    and it trains bit for bit like that part does."""
    prob = _problem(noise_sigma2=0.01)
    assert prob.Q.tobytes() == prob.Q.transpose(0, 2, 1).copy().tobytes()
    bent = prob.Q + 1e-12 * rng.standard_normal(prob.Q.shape)
    sym = 0.5 * (bent + bent.transpose(0, 2, 1))
    held = replace(prob, Q=bent)
    assert held.Q.tobytes() == sym.tobytes() == held.Q.transpose(0, 2, 1).copy().tobytes()
    w0 = prob.w_star + 1.0
    traces = [
        scaffold_train(p, 30, StepSchedule("constant", prob.step_cap), 4, w0=w0, local_steps=3)
        for p in (held, replace(prob, Q=sym))
    ]
    assert traces[0].gap.tobytes() == traces[1].gap.tobytes()
    assert traces[0].gap_stderr.tobytes() == traces[1].gap_stderr.tobytes()


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
    scaffold_train(prob, 1, StepSchedule("constant", cap), [0], local_steps=5)
    with pytest.raises(ValueError, match="exceeds stability cap"):
        scaffold_train(prob, 1, StepSchedule("constant", cap * 1.5), [0], local_steps=5)
    sch = StepSchedule("inverse_t", 12.0 * cap, 11.0)
    scaffold_train(prob, 1, sch, [0], local_steps=5)  # first value exactly at the cap
    assert sch.value(0) == pytest.approx(cap)
    assert sch.value(9) == pytest.approx(12.0 * cap / 21.0)
    with pytest.raises(ValueError, match="^schedule must"):
        StepSchedule("linear", cap)
    with pytest.raises(ValueError, match="^step_c must"):
        StepSchedule("constant", -1.0)


def test_fixed_point_stays_at_optimum():
    prob = _problem(noise_sigma2=0.0)
    sch = StepSchedule("constant", 1.0 / (12.0 * prob.smoothness))
    trace = scaffold_train(prob, 20, sch, [0], w0=prob.w_star, local_steps=5)
    assert np.all(trace.gap < 1e-24)


def test_noiseless_geometric_contraction():
    prob = _problem(noise_sigma2=0.0)
    eta = 1.0 / (12.0 * prob.smoothness)
    sch = StepSchedule("constant", eta)
    w0 = prob.w_star + np.ones(prob.dim) / np.sqrt(prob.dim)
    trace = scaffold_train(prob, 60, sch, [0], w0=w0, local_steps=5)
    target = 1.0 - prob.mu * eta / 2.0
    gaps = trace.gap
    assert np.all(np.diff(gaps) <= 0.0)
    for t in range(len(gaps) - 1):
        if gaps[t] < 1e-20:
            break
        assert gaps[t + 1] <= gaps[t] * (target + 1e-6)


def test_noiseless_round_keeps_a_share_of_the_gap_at_the_cap(rng):
    """A noiseless round maps w - w* by I - eta S Qbar, where S averages the
    users' sums of K local-step powers; at the cap its second term has norm at
    most step_cap L, so each round keeps at least (1 - step_cap L)^2 of the
    gap, and 40 rounds from gap 1 stay far above any roundoff floor."""
    for _ in range(60):
        learn = LearnConfig(
            users=int(rng.integers(1, 11)), dim=int(rng.integers(1, 17)), noise_sigma2=0.0,
            local_steps=int(rng.integers(1, 9)), mu=float(rng.uniform(0.1, 3.0)),
            condition=float(rng.uniform(1.0, 100.0)), hessian_spread=float(rng.uniform(0.0, 0.9)),
            rotate=bool(rng.integers(2)), b_scale=float(rng.uniform(-3.0, 3.0)),
        )
        prob = make_problem(learn, int(rng.integers(1 << 30)))
        w0 = prob.w_star + np.ones(prob.dim) / np.sqrt(prob.dim)
        trace = scaffold_train(prob, 40, StepSchedule("constant", prob.step_cap), [0], w0=w0,
                               local_steps=learn.local_steps)
        floor = (1.0 - prob.step_cap * prob.smoothness) ** 2
        assert np.all(trace.gap[1:] / trace.gap[:-1] >= floor * (1.0 - 1e-12))
        assert trace.gap[40] > 1e-18


def test_inverse_t_scaled_gap_bounded():
    prob = make_problem(LearnConfig(users=10, dim=16, data_size=64, iota=0.25,
                                    noise_sigma2=1e-2, mu=1.0, condition=1.0), 0)
    sch = StepSchedule("inverse_t", 2.0, 23.0)
    trace = scaffold_train(prob, 500, sch, range(40), w0=prob.w_star, local_steps=5)
    scaled = (trace.rounds[100:] + 1.0) * trace.gap[100:]
    assert np.max(scaled) <= 2.0 * scaled[0]


def test_gap_bound_fit_and_verification():
    """At V > 0 the fitted curve holds by construction, and a quarter of its
    constant leaves some round's mean + 2 stderr above the curve it gives."""
    prob = make_problem(LearnConfig(users=8, dim=8, data_size=16, iota=0.25,
                                    noise_sigma2=1e-2, mu=1.0, condition=1.0), 2)
    sch = StepSchedule("inverse_t", 2.0, 23.0)
    trace = scaffold_train(prob, 300, sch, range(40), w0=prob.w_star, local_steps=5)
    rep = check_gap_bound(trace, prob)
    assert rep["V"] == pytest.approx(1e-2 / 8 * 8 / 4.0)
    assert rep["b_min"] > 0
    assert rep["ok"]
    assert len(rep["bound"]) == len(trace.gap)
    upper = trace.gap + 2.0 * trace.gap_stderr
    quarter = (rep["b_min"] / 4.0 * rep["V"] + rep["d0"]) / (trace.rounds + 1.0)
    assert np.any(upper > quarter * (1.0 + 1e-6))


# A noiseless run at the cap stepsize: V = 0, so only ok tells a decay
# envelope that holds (from w*, where the gap stays at roundoff) from one
# that does not (from w* + 1, where the gap shrinks geometrically but stays
# above d0/(t+1) in some rounds: 17 of 31 here).
def _noiseless_gap_report(offset):
    prob = make_problem(LearnConfig(users=6, dim=8, data_size=32, noise_sigma2=0.0), 0)
    sch = StepSchedule("constant", prob.step_cap)
    trace = scaffold_train(prob, 30, sch, [0], w0=prob.w_star + offset, local_steps=5)
    return check_gap_bound(trace, prob), trace


def test_gap_bound_noiseless_zero_constant():
    rep, _ = _noiseless_gap_report(0.0)
    assert rep["V"] == 0.0 and rep["b_min"] == 0.0
    assert rep["ok"]


def test_gap_bound_noiseless_from_off_the_optimum_fails():
    rep, trace = _noiseless_gap_report(1.0)
    assert rep["V"] == 0.0 and rep["b_min"] == 0.0
    assert not rep["ok"]
    above = np.count_nonzero(trace.gap > rep["d0"] / (trace.rounds + 1.0))
    assert 0 < above < len(trace.gap)


def test_doubling_batches_halves_noise_term():
    """Same seeds make the comparison exact: iterates are linear in the
    injected noise, so scaling its std by 1/sqrt(2) scales the gap by 1/2."""
    kw = dict(users=8, dim=8, iota=0.25, noise_sigma2=2e-2, mu=1.0, condition=1.0)
    sch = StepSchedule("constant", 1.0 / 24.0)
    floors = []
    for ds in (16, 32):
        prob = make_problem(LearnConfig(data_size=ds, **kw), 4)
        trace = scaffold_train(prob, 160, sch, range(30), w0=prob.w_star, local_steps=5)
        floors.append(float(np.mean(trace.gap[80:])))
    assert floors[1] / floors[0] == pytest.approx(0.5, abs=1e-9)
    # and independent seeds still land within the 20% window
    prob = make_problem(LearnConfig(data_size=16, **kw), 4)
    trace = scaffold_train(prob, 160, sch, range(60, 90), w0=prob.w_star, local_steps=5)
    indep = float(np.mean(trace.gap[80:]))
    assert 0.4 <= floors[1] / indep <= 0.6


def test_plateau_scales_with_noise_variance():
    kw = dict(users=8, dim=8, data_size=16, iota=0.25, mu=1.0, condition=1.0)
    sch = StepSchedule("constant", 1.0 / 24.0)
    plateaus = []
    for sig2 in (1e-2, 4e-2):
        prob = make_problem(LearnConfig(noise_sigma2=sig2, **kw), 5)
        trace = scaffold_train(prob, 160, sch, range(30), w0=prob.w_star, local_steps=5)
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
    rounds = unlearn_continue(shifted, (3,), 1e-6, sch, [0], local_steps=5)
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
    t_small = unlearn_continue(prob, (0,), 0.02, sch, range(20), local_steps=5)
    t_big = unlearn_continue(prob, (1,), 0.02, sch, range(20), local_steps=5)
    assert t_big > t_small


def test_unlearning_epsilon_halving_rate():
    """In the noise-dominated 1/t regime, halving epsilon costs about 4x
    the rounds (within a factor of 2)."""
    base = make_problem(LearnConfig(users=4, dim=8, data_size=4, iota=0.25, noise_sigma2=1.0,
                                    mu=1.0, condition=1.0, b_scale=1.0), 9)
    sch = StepSchedule("inverse_t", 2.0, 23.0)
    t1 = unlearn_continue(base, (0,), 0.015, sch, range(40), local_steps=5)
    t2 = unlearn_continue(base, (0,), 0.0075, sch, range(40), local_steps=5)
    assert t1 >= 100  # both targets sit below the transient, in the noise tail
    assert 2.0 <= t2 / t1 <= 8.0


def test_unlearning_budget_exhaustion_raises():
    prob = _problem(users=4, noise_sigma2=0.0, b_scale=5.0)
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    with pytest.raises(RuntimeError):
        unlearn_continue(prob, (0,), 1e-9, sch, [0], local_steps=5, max_rounds=3)


def test_unlearning_round_budget_must_be_positive():
    """max_rounds has a rule of its own, and the error names it."""
    prob = _problem(users=4)
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    for max_rounds in (0, -3):
        with pytest.raises(ValueError, match="^max_rounds must be positive$"):
            unlearn_continue(prob, (0,), 0.05, sch, [0], local_steps=5, max_rounds=max_rounds)


def test_unlearn_continue_validation():
    """unlearn_continue checks its leavers and epsilon before it trains."""
    prob = _problem(users=4)
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    with pytest.raises(ValueError, match="^leavers must be nonempty"):
        unlearn_continue(prob, (), 0.1, sch, [0], local_steps=5)
    for leavers in ((0, 1, 2, 3), (0, 4)):
        with pytest.raises(ValueError, match="^leavers must be a proper subset"):
            unlearn_continue(prob, leavers, 0.1, sch, [0], local_steps=5)
    for epsilon in (0.0, np.nan):
        with pytest.raises(ValueError, match="^epsilon must"):
            unlearn_continue(prob, (0,), epsilon, sch, [0], local_steps=5)


def test_shapley_single_user_gets_everything():
    prob = _problem(users=1, noise_sigma2=0.0)
    phi = federated_shapley_exact(prob)
    total = prob.global_value(prob.w_star)
    assert phi[0] == pytest.approx(total, rel=1e-12)
    assert total < 0  # the optimum lies below F(0) = 0


def test_shapley_symmetry_for_identical_users():
    base = _problem(users=4, noise_sigma2=0.0)
    Q = base.Q.copy()
    b = base.b.copy()
    Q[1], b[1] = Q[0], b[0]
    dup = LearnProblem(Q=Q, b=b, data_sizes=base.data_sizes, iota=base.iota, noise_sigma2=0.0)
    phi = federated_shapley_exact(dup)
    assert phi[0] == pytest.approx(phi[1], abs=1e-12)


def test_shapley_efficiency_random_problems():
    for seed in range(20):
        learn = LearnConfig(users=int(3 + seed % 4), dim=6, data_size=16, noise_sigma2=1e-3,
                            mu=0.5, condition=3.0, hessian_spread=0.3, rotate=True)
        prob = make_problem(learn, seed)
        phi = federated_shapley_exact(prob)
        total = prob.global_value(prob.w_star)
        assert phi.sum() == pytest.approx(total, abs=1e-9 * max(1.0, abs(total)))


def test_shapley_rejects_large_coalitions():
    prob = _problem(users=9)
    with pytest.raises(ValueError, match="^exact attribution limited to 8 users$"):
        federated_shapley_exact(prob)


def test_shapley_matches_the_coalition_loop():
    for shape in (dict(hessian_spread=0.3, rotate=True), dict(hessian_spread=0.5, condition=10.0)):
        for users in range(1, 9):
            learn = LearnConfig(users=users, dim=6, data_size=16, noise_sigma2=1e-3,
                                mu=0.5, **shape)
            prob = make_problem(learn, users)
            phi = federated_shapley_exact(prob)
            ref = shapley_loop(prob)
            assert np.max(np.abs(phi - ref)) <= 1e-12 * np.max(np.abs(ref))
            total = prob.global_value(prob.w_star)
            assert abs(phi.sum() - total) <= 1e-12 * max(1.0, abs(total))


def test_shapley_sees_the_users_data():
    """Moving two users' b apart, with the mean b kept, moves their values:
    a coalition's optimum reads its members' b, not only their Hessians."""
    prob = _problem(users=6, dim=5, hessian_spread=0.3, rotate=True, noise_sigma2=0.0)
    b = prob.b.copy()
    shift = prob.b[2] - prob.b[3]
    b[0] += shift
    b[1] -= shift
    moved = replace(prob, b=b)
    assert np.allclose(moved.b_mean, prob.b_mean, rtol=0.0, atol=1e-12)
    phi, phi_moved = federated_shapley_exact(prob), federated_shapley_exact(moved)
    assert np.max(np.abs(phi_moved - phi)) > 1e-3


@pytest.mark.parametrize("equal_b", [False, True])
def test_shapley_with_equal_hessians(equal_b):
    """With one Hessian for all, unequal b give unequal values; equal b
    make every coalition's optimum w*, so each user gets F(w*)/I."""
    prob = _problem(users=5, hessian_spread=0.0, rotate=False, noise_sigma2=0.0)
    assert all(np.array_equal(Q, prob.Q[0]) for Q in prob.Q)
    if equal_b:
        prob = replace(prob, b=np.tile(prob.b[0], (prob.users, 1)))
    phi = federated_shapley_exact(prob)
    spread = np.max(phi) - np.min(phi)
    if equal_b:
        assert spread <= 1e-12 * np.max(np.abs(phi))
        assert phi[0] == pytest.approx(prob.global_value(prob.w_star) / prob.users, rel=1e-12)
    else:
        assert spread > 1e-3 * np.max(np.abs(phi))


def test_global_value_reads_a_stack_row_by_row():
    """F at an (m, dim) stack is each row's own F.  The stack multiplies by
    one matrix product and a single model by vector products, which add in
    other orders, so the agreement is to rounding: within a few ulps of the
    sum of the terms' magnitudes."""
    for users, shape in ((4, dict(condition=1.0)), (6, dict(condition=10.0, rotate=True))):
        prob = _problem(users=users, **shape)
        stack = np.vstack([np.random.default_rng(users).standard_normal((32, prob.dim)),
                           prob.w_star, np.zeros(prob.dim)])
        values = prob.global_value(stack)
        rows = np.array([prob.global_value(w) for w in stack])
        assert values.shape == (len(stack),) and values[-1] == rows[-1] == 0.0
        assert values[-2] == pytest.approx(0.5 * prob.b_mean @ prob.w_star, rel=1e-12)
        size, q_size, b_size = np.abs(stack), np.abs(prob.q_mean), np.abs(prob.b_mean)
        terms = 0.5 * np.sum((size @ q_size) * size, axis=1) + size @ b_size
        assert np.all(np.abs(values - rows) <= 4 * (prob.dim + 2) * np.finfo(float).eps * terms)


def test_shapley_trains_nothing(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("attribution ran the round kernel")

    monkeypatch.setattr(learning, "_run_scaffold", no_training)
    phi = federated_shapley_exact(_problem(users=4))
    assert phi.shape == (4,) and np.all(np.isfinite(phi))


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
    trace = scaffold_train(prob, 200, sch, range(6), local_steps=5)
    ref, _ = run_scaffold_loop(prob, 200, sch, range(6), None, 5, prob.w_star)
    _assert_matches(trace.gap, ref.gap, rtol)
    # without noise the seeds agree and the stderr is rounding dust
    _assert_matches(trace.gap_stderr, ref.gap_stderr, rtol, scale=ref.gap)


@pytest.mark.parametrize("seeds, noise_sigma2", [
    pytest.param(6, 1e-2, id="int"),
    pytest.param(200, 1e-2, id="int-200"),
    pytest.param([9, 2, 5, 0], 1e-2, id="list"),
    pytest.param([3], 1e-2, id="single"),
    pytest.param(6, 0.0, id="noiseless"),
])
def test_scaffold_train_statistics_match_the_per_round_loop(seeds, noise_sigma2):
    """scaffold_train forms the gap and its stderr once per run, over the
    rounds' stacked squared distances; they keep the per-round bits.  At 200
    seeds numpy's pairwise sum runs past one 128-element block."""
    prob = _kernel_problem(ROTATED, noise_sigma2)
    sch = StepSchedule("inverse_t", 1.0 / prob.smoothness, 11.0)
    trace = scaffold_train(prob, 60, sch, seeds, local_steps=5)
    ref = gap_per_round(prob, 60, sch, seeds, 5)
    assert trace.gap.tobytes() == ref.gap.tobytes()
    assert trace.gap_stderr.tobytes() == ref.gap_stderr.tobytes()


@pytest.mark.parametrize("shape", [SCALAR, ROTATED], ids=["scalar", "rotated"])
def test_unlearn_stop_round_matches_the_loop_kernel(shape):
    prob = _kernel_problem(shape)
    rest = restrict_problem(prob, [1, 3, 4])
    epsilon = 0.1 * float(np.linalg.norm(prob.w_star - rest.w_star))
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    rounds = unlearn_continue(prob, (0, 2), epsilon, sch, range(6), local_steps=5)
    _, ref = run_scaffold_loop(rest, 100000, sch, range(6), prob.w_star, 5, rest.w_star,
                                  stop_norm=epsilon)
    assert rounds == ref > 0


def test_joint_seeds_average_the_single_seed_runs():
    """Each seed's trajectory depends on its own noise stream only, so a
    joint run's gap is the mean of the single-seed gaps; a noise buffer read
    along the wrong axis would mix the streams."""
    prob = _kernel_problem(ROTATED)
    sch = StepSchedule("inverse_t", 1.0 / prob.smoothness, 11.0)
    joint = scaffold_train(prob, 100, sch, [0, 3, 7], local_steps=5)
    single = np.mean(
        [scaffold_train(prob, 100, sch, [s], local_steps=5).gap for s in (0, 3, 7)], axis=0
    )
    np.testing.assert_allclose(joint.gap, single, rtol=1e-14, atol=0.0)


# --- the round kernel against its exact expected gap ---

ORACLE_ROUNDS = 40
ORACLE_SEEDS = 400
# A seed's squared distance to w* is a quadratic form in a Gaussian vector,
# whose mean and variance expected_gap_loop gives exactly; so round t's
# Monte-Carlo gap, a mean over ORACLE_SEEDS seeds, has the standard error
# sqrt(var_t / ORACLE_SEEDS).  The band on its z-statistic is the two-sided
# normal quantile at a family-wise level of 1e-3 over the rounds tested
# (Bonferroni): a right kernel leaves it on at most about one set of streams
# in a thousand.
Z_BAND = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * ORACLE_ROUNDS))
_ROTATED_6 = make_problem(LearnConfig(users=6, dim=8, **ROTATED), 0)
ORACLE_PROBLEMS = {
    "default": make_problem(LearnConfig(), 0),
    "rotated": _ROTATED_6,
    "unequal-sizes": replace(_ROTATED_6, data_sizes=np.array([8, 16, 24, 40, 64, 128])),
}


def _oracle_schedule(prob, kind):
    """A schedule that starts at the cap: constant, or inverse_t from there."""
    if kind == "constant":
        return StepSchedule("constant", prob.step_cap)
    return StepSchedule("inverse_t", 24.0 * prob.step_cap, 23.0)


@pytest.mark.parametrize("kind", ["constant", "inverse_t"])
@pytest.mark.parametrize("name", ORACLE_PROBLEMS)
def test_noiseless_trace_matches_the_exact_gap(name, kind):
    quiet = replace(ORACLE_PROBLEMS[name], noise_sigma2=0.0)
    sch = _oracle_schedule(quiet, kind)
    w0 = quiet.w_star + np.ones(quiet.dim) / np.sqrt(quiet.dim)
    trace = scaffold_train(quiet, ORACLE_ROUNDS, sch, [0], w0=w0, local_steps=5)
    gap, var = expected_gap_loop(quiet, ORACLE_ROUNDS, sch, w0, 5)
    assert not var.any()
    np.testing.assert_allclose(trace.gap, gap, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", ["constant", "inverse_t"])
@pytest.mark.parametrize("name", ORACLE_PROBLEMS)
def test_noisy_trace_stays_in_the_exact_gap_band(name, kind):
    """From w*, where the mean stays and the gap is all noise."""
    prob = ORACLE_PROBLEMS[name]
    sch = _oracle_schedule(prob, kind)
    trace = scaffold_train(prob, ORACLE_ROUNDS, sch, ORACLE_SEEDS, w0=prob.w_star,
                           local_steps=5)
    gap, var = expected_gap_loop(prob, ORACLE_ROUNDS, sch, prob.w_star, 5)
    assert trace.gap[0] == gap[0] == 0.0
    z = (trace.gap[1:] - gap[1:]) / np.sqrt(var[1:] / ORACLE_SEEDS)
    assert np.max(np.abs(z)) <= Z_BAND


# --- pinned outputs ---

# No CLI output covers unlearning or attribution, so their results are pinned
# here, bit for bit: any change to the round kernel's operations or noise
# streams, or to the statistic a caller reads from it, moves the unlearning
# rounds, and any change to the coalition solve or the Shapley sum moves the
# attribution.
PINNED_UNLEARN_ROUNDS = {
    ("scalar", (0, 2)): 74,
    ("scalar", (4,)): 47,
    ("rotated", (0, 2)): 342,
    ("rotated", (4,)): 272,
}
PINNED_SHAPLEY = {
    "scalar": ["-0x1.100cd64875109p-4", "-0x1.57a3582aeb3cfp-1",
               "-0x1.90ffa09e1eee8p-1", "0x1.6c52380d003c0p-5"],
    "rotated": ["-0x1.2127b9263b1ebp+0", "-0x1.68ab6755425f6p-2",
                "0x1.800b50088a57fp-5", "0x1.4a78a1e3838c0p+0"],
}


@pytest.mark.parametrize("name, shape", [("scalar", SCALAR), ("rotated", ROTATED)])
def test_unlearn_stop_rounds_are_pinned(name, shape):
    prob = _kernel_problem(shape)
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    for leavers in ((0, 2), (4,)):
        rounds = unlearn_continue(prob, leavers, 0.05, sch, range(6), local_steps=5)
        assert rounds == PINNED_UNLEARN_ROUNDS[name, leavers]


@pytest.mark.parametrize("name, shape", [("scalar", SCALAR), ("rotated", ROTATED)])
def test_shapley_values_are_pinned(name, shape):
    learn = LearnConfig(users=4, dim=6, data_size=16, noise_sigma2=1e-3, mu=0.5, **shape)
    prob = make_problem(learn, 2)
    phi = federated_shapley_exact(prob)
    assert phi.tobytes() == np.array([float.fromhex(h) for h in PINNED_SHAPLEY[name]]).tobytes()


# --- the noise drawn a round ahead on several threads ---

# 80 seeds of 768-normal blocks (8 draws of 6 users x 16), drawn by the caller
# and one helper per CPU past the first at 1, 2, 3 and 5 CPUs.
THREADED = LearnConfig(users=6, dim=16, data_size=16, noise_sigma2=1e-2, mu=1.0, **ROTATED)
THREADED_STEPS = 7


def _in_thread(work):
    """Run work on a thread of its own; return what it returned and the
    thread's ident, or raise here what it raised.  A drawer that hangs fails
    here instead of hanging the suite."""
    outcome = []

    def run():
        try:
            outcome.append((work(), None))
        except BaseException as exc:  # raised again on the test's thread
            outcome.append((None, exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=20)
    assert not thread.is_alive(), "the caller hung"
    result, error = outcome[0]
    if error is not None:
        raise error
    return result, thread.ident


def _until(done, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not done() and time.monotonic() < deadline:
        time.sleep(0.001)
    return done()


def test_bytes_do_not_depend_on_the_cpu_count(noise_spy):
    """Each seed draws its own stream into its own block, and a round opens
    only once the last is drawn, so any number of drawing threads gives the
    same training and unlearning bytes.  The threads switch every
    microsecond, so a seed claimed twice or a round opened early shows."""
    prob = make_problem(THREADED, 1)
    sch = StepSchedule("inverse_t", 1.0 / prob.smoothness, 11.0)
    flat = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3, 5):
            noise_spy.cpus(cpus)
            # a run's helpers may take the idents of the last run's, so count each run alone
            noise_spy.threads.clear()
            trace = scaffold_train(prob, 30, sch, range(80), local_steps=THREADED_STEPS)
            assert len(noise_spy.threads) == cpus
            noise_spy.threads.clear()
            rounds = unlearn_continue(prob, (0,), 0.05, flat, range(80), local_steps=THREADED_STEPS)
            assert len(noise_spy.threads) == cpus
            results.append((trace.gap.tobytes(), trace.gap_stderr.tobytes(), rounds))
    finally:
        sys.setswitchinterval(interval)
    assert results[0][2] > 0
    assert all(result == results[0] for result in results[1:])


def test_no_noise_thread_outlives_a_run(noise_spy):
    """Each run, on a thread of its own so that a join that hangs fails the
    test, stops and joins its helper before it returns."""
    prob = make_problem(THREADED, 1)
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    noise_spy.cpus(2)
    before = threading.active_count()
    _in_thread(lambda: scaffold_train(prob, 5, sch, range(32), local_steps=THREADED_STEPS))
    assert threading.active_count() == before and len(noise_spy.threads) == 2
    noise_spy.threads.clear()
    # it stops well before its round budget
    rounds, _ = _in_thread(
        lambda: unlearn_continue(prob, (0,), 0.05, sch, range(32), local_steps=THREADED_STEPS))
    assert rounds < 1000
    assert threading.active_count() == before and len(noise_spy.threads) == 2


def test_a_noiseless_run_draws_its_streams_like_a_noisy_one(noise_spy):
    """Without noise the kernel still draws each round's blocks and scales
    them by zero: at 2 CPUs and 32 seeds, training and unlearning each
    start their helper, give the 1-CPU bytes and leave no thread running."""
    prob = replace(make_problem(THREADED, 1), noise_sigma2=0.0)
    sch = StepSchedule("inverse_t", 1.0 / prob.smoothness, 11.0)
    flat = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    before = threading.active_count()
    results = []
    for cpus in (1, 2):
        noise_spy.cpus(cpus)
        noise_spy.threads.clear()
        trace, _ = _in_thread(
            lambda: scaffold_train(prob, 30, sch, range(32), local_steps=THREADED_STEPS))
        assert threading.active_count() == before and len(noise_spy.threads) == cpus
        noise_spy.threads.clear()
        rounds, _ = _in_thread(
            lambda: unlearn_continue(prob, (0,), 0.05, flat, range(32), local_steps=THREADED_STEPS))
        assert threading.active_count() == before and len(noise_spy.threads) == cpus
        results.append((trace.gap.tobytes(), trace.gap_stderr.tobytes(), rounds))
    assert results[0][2] > 0 and results[1] == results[0]


@pytest.mark.parametrize("stop", ["close", "drop"])
def test_stopping_the_round_generator_joins_its_threads(noise_spy, stop):
    prob = make_problem(THREADED, 1)
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    noise_spy.cpus(3)
    before = threading.active_count()

    def read_three_rounds_and_stop():
        run = _run_scaffold(prob, sch, range(48), None, THREADED_STEPS)
        list(itertools.islice(run, 3))
        running = threading.active_count()
        if stop == "close":
            run.close()
        else:
            del run
        return running

    running, _ = _in_thread(read_three_rounds_and_stop)
    # the caller's thread and two helpers
    assert running == before + 3
    assert threading.active_count() == before


def test_a_helper_threads_exception_reaches_the_caller(noise_spy):
    """The first block a helper draws raises; the training call raises that
    error on its own thread and stops, and the helper is joined."""
    prob = make_problem(THREADED, 1)
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    noise_spy.cpus(2)
    trainer = []

    def train():
        trainer.append(threading.get_ident())
        scaffold_train(prob, 200, sch, range(32), local_steps=THREADED_STEPS)

    noise_spy.breaks = lambda stream, thread: not noise_spy.broke_on and thread not in trainer
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="stream broke"):
        _in_thread(train)
    assert len(noise_spy.broke_on) == 1
    assert noise_spy.broke_on[0] not in (trainer[0], threading.get_ident())
    assert threading.active_count() == before


def test_an_exception_in_the_callers_own_draw_reaches_it(noise_spy):
    """The first block the training thread draws itself raises; the
    training call raises that error on its own thread and stops, and the
    helper is joined."""
    prob = make_problem(THREADED, 1)
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    noise_spy.cpus(2)
    trainer = []

    def train():
        trainer.append(threading.get_ident())
        scaffold_train(prob, 200, sch, range(32), local_steps=THREADED_STEPS)

    noise_spy.breaks = lambda stream, thread: not noise_spy.broke_on and thread in trainer
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="stream broke"):
        _in_thread(train)
    assert noise_spy.broke_on == trainer
    assert threading.active_count() == before


def test_a_helper_that_fails_to_start_leaves_no_thread(noise_spy, monkeypatch):
    """Of the two helpers three CPUs give 48 seeds, the second fails to
    start; the training call raises that error, and the first is joined."""
    prob = make_problem(THREADED, 1)
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    noise_spy.cpus(3)
    start, started = threading.Thread.start, []

    def start_once(thread):
        started.append(thread)
        if len(started) > 1:
            raise RuntimeError("can't start new thread")
        start(thread)

    def train():
        with monkeypatch.context() as patch:
            patch.setattr(threading.Thread, "start", start_once)
            scaffold_train(prob, 5, sch, range(48), local_steps=THREADED_STEPS)

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^can't start new thread$"):
        _in_thread(train)
    # one helper started, and it is joined
    assert len(started) == 2 and not started[0].is_alive()
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus, seeds", [(1, 8), (2, 32), (3, 48)])
def test_the_noise_is_drawn_one_round_ahead_and_no_further(noise_spy, cpus, seeds):
    """After the caller has read k rounds, every stream has drawn k or k + 1
    blocks; left idle, the helpers draw all of round k + 1 and stop there."""
    prob = make_problem(THREADED, 1)
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    noise_spy.cpus(cpus)
    noise_spy.streams.clear()
    run = _run_scaffold(prob, sch, range(seeds), None, THREADED_STEPS)
    next(run)
    ahead = 0 if cpus == 1 else 1
    for k in range(1, 5):
        next(run)
        assert all(k <= stream.blocks <= k + 1 for stream in noise_spy.streams)
        assert _until(lambda: all(stream.blocks == k + ahead for stream in noise_spy.streams))
        time.sleep(0.05)
        assert [stream.blocks for stream in noise_spy.streams] == [k + ahead] * seeds
    _in_thread(run.close)


def test_a_helper_error_in_a_round_never_read_neither_hangs_nor_leaks(noise_spy):
    """Seed 0's third block belongs to the round drawn ahead after the caller
    has read two; it raises on a helper, and closing the run ends cleanly."""
    prob = make_problem(THREADED, 1)
    sch = StepSchedule("constant", 1.0 / (24.0 * prob.smoothness))
    noise_spy.cpus(2)
    noise_spy.breaks = lambda stream, thread: stream.index == 0 and stream.blocks == 3
    noise_spy.streams.clear()
    before = threading.active_count()
    run = _run_scaffold(prob, sch, range(32), None, THREADED_STEPS)
    list(itertools.islice(run, 3))
    assert _until(lambda: noise_spy.broke_on)
    _, closer = _in_thread(run.close)
    assert noise_spy.broke_on[0] not in (closer, threading.get_ident())
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus, seeds", [(2, 32), (3, 48)])
def test_closing_mid_round_waits_for_every_helper(noise_spy, cpus, seeds):
    """The first block a helper draws of the round drawn ahead is slow, and
    the drawer is closed while it draws: close returns only once every helper
    has finished and been joined, and neither round buffer changes after."""
    noise_spy.cpus(cpus)
    slow = threading.Event()

    def slow_third_block(stream, thread):
        if stream.blocks == 3 and not slow.is_set():
            slow.set()
            time.sleep(0.2)
        return False

    noise_spy.breaks = slow_third_block
    before = threading.active_count()
    drawer = learning._noise_rounds([np.random.default_rng(k) for k in range(seeds)], (4, 6))
    bufs = [next(drawer), next(drawer)]
    assert threading.active_count() == before + cpus - 1
    assert slow.wait(10)
    _in_thread(drawer.close)
    assert threading.active_count() == before
    kept = [buf.copy() for buf in bufs]
    time.sleep(0.3)
    assert [buf.tobytes() for buf in bufs] == [buf.tobytes() for buf in kept]
