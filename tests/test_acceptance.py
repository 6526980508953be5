"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Run with -s (or read captured output) for the per-criterion lines.  Shipped
parameters come from the packaged default configuration.
"""
import itertools
import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from fedincentives.cli import main as cli_main
from fedincentives.config import load_config
from fedincentives.contract import design_contract, optimal_data_sizes, verify_ir_ic
from fedincentives.experiments import find_stationary_rates, mechanism_contract, run_pipeline
from fedincentives.learning import (
    LearnConfig,
    LearnProblem,
    StepSchedule,
    UnlearnSpec,
    federated_shapley_exact,
    make_problem,
    scaffold_train,
    unlearn_continue,
)
from fedincentives.model import (
    GameConfig,
    Population,
    UserTerms,
    UserTypeSpec,
    mean_retention_rate,
    pooled_blocks,
)
from fedincentives.population import sample_population
from fedincentives.retention import optimal_retention, retention_objective
from fedincentives.revocation import lower_equilibrium, verify_nash

from game_oracles import brute_force_pooling_oracle, least_equilibrium_oracle, stage1_expected_cost


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def shipped():
    return load_config(None)


@pytest.fixture(scope="module")
def benchmark_runs(shipped):
    """50 common-random-number trials; per trial each mechanism plays the full
    game on the same population, plus RAR's menu played as NRI, which ablates
    Stage IV."""
    runs = {"RAR": [], "NRI": [], "LLA": [], "RAR_NO_RETAIN": []}
    types, cfg = shipped.types, shipped.cfg
    menus = {m: mechanism_contract(m, types, cfg) for m in ("RAR", "NRI", "LLA")}
    for trial in range(50):
        pop = sample_population(types, shipped.sampling, seed=trial)
        for mech, contract in menus.items():
            runs[mech].append(run_pipeline(mech, contract, types, cfg, pop))
        runs["RAR_NO_RETAIN"].append(
            run_pipeline("NRI", menus["RAR"], types, cfg, pop)
        )
    return runs


def _micro_economy(rng, n_max=50):
    """Small randomized stage-III/IV instance with real churn pressure."""
    J = int(rng.integers(1, 4))
    n = int(rng.integers(2, n_max + 1))
    type_idx = rng.integers(0, J, size=n)
    counts = np.bincount(type_idx, minlength=J)
    types = [
        UserTypeSpec(
            theta=float(rng.uniform(0.5, 6.0)),
            xi=float(rng.uniform(200.0, 2500.0)),
            count=max(1, int(counts[j])),
            p=float(rng.uniform(0.0, 0.3)),
            q=float(rng.uniform(0.0, 1.0)),
            loss_mean=float(rng.uniform(0.2, 0.8)),
            loss_var=float(rng.uniform(0.0, 0.05)),
        )
        for j in range(J)
    ]
    cfg = GameConfig(
        T=float(rng.uniform(20.0, 120.0)),
        lam=float(rng.uniform(0.0, 0.3)),
        rho=1.0,
        gamma=float(10.0 ** rng.uniform(-10, -6)),
    )
    contract = design_contract(types, cfg)
    # shrink rewards so revocation is live instead of vanishingly rare
    shrink = float(rng.uniform(0.3, 1.0))
    contract = replace(contract, r=contract.r * shrink)
    pop = Population(
        type_idx=type_idx,
        loss=rng.uniform(0.0, 1.0, size=n),
        shapley=rng.normal(0.0, 1.0, size=n) * 1e-4,
    )
    return types, cfg, contract, pop, mean_retention_rate(types)


def test_criterion_01_pooling_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(10000):
        J = int(rng.integers(1, 11))
        A = (10.0 ** rng.uniform(-2, 2)) * rng.uniform(0.1, 10.0, size=J)
        B = (10.0 ** rng.uniform(-2, 2)) * rng.uniform(0.1, 10.0, size=J)
        d = optimal_data_sizes(list(A), list(B))
        ref = brute_force_pooling_oracle(list(A), list(B))
        assert pooled_blocks(d) == ref.blocks, (list(A), list(B))
        for x, y in zip(d, ref.d):
            assert abs(x - y) <= 1e-9 * max(1.0, abs(y))
    elapsed = time.perf_counter() - t0
    eight = pooled_blocks(
        optimal_data_sizes([10.0, 6.0, 7.0, 8.0, 5.0, 3.5, 2.0, 4.0], [1.0] * 8)
    )
    pattern_ok = eight == [[0], [1, 2, 3], [4], [5], [6, 7]]
    ok = elapsed < 60.0 and pattern_ok
    _report(1, "pooling optimizer vs oracle", ok,
            f"10^4 instances agree, {elapsed:.1f}s; 8-type block pattern "
            f"{'reproduced' if pattern_ok else 'wrong: ' + str(eight)}")


def test_criterion_02_participation_and_selection(shipped):
    contract = design_contract(shipped.types, shipped.cfg)
    report = verify_ir_ic(contract, shipped.types, shipped.cfg)
    r_max = float(np.max(np.abs(contract.r)))
    boundary = abs(report.ir_slack[-1])
    boundary_ok = boundary <= 1e-9 * max(1.0, r_max)
    ok = report.ok and boundary_ok
    _report(2, "IR/IC with boundary rent", ok,
            f"{len(report.violations)} violations, worst IR {report.worst_ir:.3g}, "
            f"worst IC {report.worst_ic:.3g}, boundary-type payoff {boundary:.3g}")


def test_criterion_03_equilibrium_certification():
    rng = np.random.default_rng(303)
    oracle_checked = 0
    for _ in range(1000):
        types, cfg, contract, pop, q_bar = _micro_economy(rng)
        terms = UserTerms.of(pop, contract, types)
        profile = lower_equilibrium(terms, cfg, q_bar)
        assert verify_nash(profile.x, terms, cfg, q_bar)
        if len(pop) <= 12:
            least = least_equilibrium_oracle(terms, cfg, q_bar)
            assert np.array_equal(profile.x, least)
            oracle_checked += 1
    ok = oracle_checked >= 150
    _report(3, "lower equilibrium certified", ok,
            f"1000 instances Nash-verified, {oracle_checked} matched the "
            f"exhaustive least-equilibrium oracle exactly")


def test_criterion_04_retention_optimality(shipped):
    rng = np.random.default_rng(404)
    for _ in range(150):
        types, cfg, contract, pop, q_bar = _micro_economy(rng, n_max=12)
        revokers = np.arange(len(pop))
        terms = UserTerms.of(pop, contract, types)
        result = optimal_retention(revokers, pop, terms, cfg)
        best, best_key = None, None
        for size in range(len(revokers) + 1):
            for combo in itertools.combinations(range(len(revokers)), size):
                subset = revokers[list(combo)]
                obj = retention_objective(subset, revokers, pop, terms, cfg)
                key = (obj, size, combo)
                if best_key is None or key < best_key:
                    best, best_key = subset, key
        assert sorted(result.retained) == sorted(best)
        scale = max(1.0, abs(best_key[0]))
        assert abs(result.objective - best_key[0]) <= 1e-12 * scale

    outcome = run_pipeline(
        "RAR",
        design_contract(shipped.types, shipped.cfg),
        shipped.types,
        shipped.cfg,
        sample_population(shipped.types, shipped.sampling, seed=0),
    )
    worst_slack = 0.0
    n_ret = 0
    if outcome.retention is not None:
        pop = outcome.population
        leavers = outcome.revoke & ~outcome.retained
        leave_mass = float(np.sum(pop.loss[leavers] ** 2))
        for i, ru in zip(outcome.retention.retained, outcome.retention.incentives):
            t = shipped.types[pop.type_idx[i]]
            d, rl = (a[pop.type_idx[i]] for a in outcome.contract.per_type())
            benefit = t.theta * d * shipped.cfg.lam * leave_mass + t.xi * pop.loss[i] * d
            slack = abs(benefit - rl - ru) / max(1.0, abs(rl))
            worst_slack = max(worst_slack, slack)
            n_ret += 1
    ok = worst_slack <= 1e-9
    _report(4, "retention exact + indifference", ok,
            f"150 enumeration matches up to 12 revokers; worst relative "
            f"indifference slack {worst_slack:.2e} over {n_ret} retained users")


def test_criterion_05_selection_patterns(benchmark_runs):
    loss_ok = loss_tot = 0
    shap_ok = shap_tot = 0
    for out in benchmark_runs["RAR"]:
        pop, revoke, retained = out.population, out.revoke, out.retained
        if revoke.any():
            loss_tot += 1
            good = True
            for j in np.unique(pop.type_idx[revoke]):
                sel = pop.type_idx == j
                rev, stay = sel & revoke, sel & ~revoke
                if stay.any() and pop.loss[rev].mean() <= pop.loss[stay].mean():
                    good = False
            loss_ok += good
        left = revoke & ~retained
        if retained.any() and left.any():
            shap_tot += 1
            shap_ok += pop.shapley[retained].mean() < pop.shapley[left].mean()
    loss_rate = loss_ok / loss_tot if loss_tot else 0.0
    shap_rate = shap_ok / shap_tot if shap_tot else 0.0
    ok = loss_tot >= 45 and shap_tot >= 45 and loss_rate >= 0.9 and shap_rate >= 0.9
    _report(5, "revoker/retention selection", ok,
            f"revokers top-loss in {loss_ok}/{loss_tot} trials, retained "
            f"lower-contribution in {shap_ok}/{shap_tot} trials")


def _paired_gap(runs_a, runs_b):
    """Mean and standard error of the per-trial cost gap a - b, and the number
    of trials whose revocation and retention outcomes are identical."""
    gaps = np.array([a.cost - b.cost for a, b in zip(runs_a, runs_b)])
    same = sum(
        np.array_equal(a.revoke, b.revoke) and np.array_equal(a.retained, b.retained)
        for a, b in zip(runs_a, runs_b)
    )
    return float(gaps.mean()), float(gaps.std(ddof=1) / math.sqrt(len(gaps))), same


def test_criterion_06_benchmark_ordering(shipped, benchmark_runs):
    types, cfg = shipped.types, shipped.cfg
    means = {m: float(np.mean([o.cost for o in benchmark_runs[m]]))
             for m in ("RAR", "NRI", "LLA")}
    rar_lt_nri = means["RAR"] < means["NRI"]
    stage4_gaps = [
        opt.cost - none.cost
        for opt, none in zip(benchmark_runs["RAR"], benchmark_runs["RAR_NO_RETAIN"])
    ]
    per_trial_ok = all(g <= 1e-12 for g in stage4_gaps)

    # Design level: every menu judged at the true cost rates.  RAR minimizes
    # the expected Stage-I cost over IR/IC menus and NRI's menu is one of
    # them; LLA's menu, priced with lambda = 0, is not IR/IC at all.
    menus = {m: benchmark_runs[m][0].contract for m in ("RAR", "NRI", "LLA")}
    reports = {m: verify_ir_ic(c, types, cfg) for m, c in menus.items()}
    stage1 = {m: stage1_expected_cost(menus[m], [types[i] for i in menus[m].order], cfg)
              for m in ("RAR", "NRI")}
    feasible_ok = reports["RAR"].ok and reports["NRI"].ok
    design_ok = stage1["RAR"] <= stage1["NRI"]
    lla_mispriced = not reports["LLA"].ok

    for a, b in (("NRI", "RAR"), ("LLA", "RAR"), ("LLA", "NRI")):
        mean, se, same = _paired_gap(benchmark_runs[a], benchmark_runs[b])
        print(f"  paired {a} - {b}: {mean:.6g} ± {se:.2g} (mean ± stderr over "
              f"{len(stage4_gaps)} trials); equilibrium outcomes coincide in "
              f"{same}/{len(stage4_gaps)}")

    ok = rar_lt_nri and per_trial_ok and feasible_ok and design_ok and lla_mispriced
    _report(6, "benchmark cost ordering", ok,
            f"means RAR {means['RAR']:.6g}, NRI {means['NRI']:.6g}, "
            f"LLA {means['LLA']:.6g}; RAR<NRI {rar_lt_nri}, "
            f"per-trial retention ablation ≤ 0 {per_trial_ok}; at true rates "
            f"RAR/NRI IR/IC {feasible_ok}, stage-I cost RAR {stage1['RAR']:.9g} ≤ "
            f"NRI {stage1['NRI']:.9g} {design_ok}, LLA violations "
            f"{len(reports['LLA'].violations)} (> 0 {lla_mispriced})")


def test_criterion_07_stationary_rates(shipped):
    exp = replace(shipped.experiment, sweep_trials=2, refine_trials=5)
    search = find_stationary_rates(
        shipped.types, replace(shipped.cfg, seed=0), shipped.sampling, exp
    )
    ok = 1e-3 <= search.p_star <= 6e-3 and 0.35 <= search.q_star <= 0.65
    _report(7, "stationary churn rates", ok,
            f"p* = {search.p_star:.4g} (window [1e-3, 6e-3]), "
            f"q* = {search.q_star:.4g} (window [0.35, 0.65])")


def test_criterion_08_convergence_shapes(shipped):
    learn = shipped.learn
    problem = make_problem(learn, 0)

    quiet = LearnProblem(Q=problem.Q, b=problem.b, data_sizes=problem.data_sizes,
                         iota=problem.iota, noise_sigma2=0.0)
    eta = 1.0 / (12.0 * quiet.smoothness)
    w0 = quiet.w_star + np.ones(quiet.dim) / np.sqrt(quiet.dim)
    tr0 = scaffold_train(quiet, 40, StepSchedule("constant", eta), [0], w0=w0,
                         local_steps=learn.local_steps)
    target = 1.0 - quiet.mu * eta / 2.0
    worst = 0.0
    for t in range(len(tr0.gap) - 1):
        if tr0.gap[t] <= 1e-18:
            break
        worst = max(worst, tr0.gap[t + 1] / tr0.gap[t])
    contraction_ok = worst <= target + 1e-6

    schedule = learn.make_schedule()
    trace = scaffold_train(problem, 600, schedule, range(learn.seeds),
                           w0=problem.w_star, local_steps=learn.local_steps)
    scaled = (trace.rounds[50:501] + 1.0) * trace.gap[50:501]
    window_ratio = float(np.max(scaled) / scaled[0])
    window_ok = window_ratio <= 2.0

    flat = StepSchedule("constant", 1.0 / (24.0 * problem.smoothness))
    doubled = LearnProblem(Q=problem.Q, b=problem.b,
                           data_sizes=problem.data_sizes * 2,
                           iota=problem.iota, noise_sigma2=problem.noise_sigma2)
    floors = []
    for prob in (problem, doubled):
        tr = scaffold_train(prob, 300, flat, range(learn.seeds), w0=prob.w_star,
                            local_steps=learn.local_steps)
        floors.append(float(np.mean(tr.gap[150:])))
    floor_ratio = floors[1] / floors[0]
    floor_ok = 0.4 <= floor_ratio <= 0.6

    ok = contraction_ok and window_ok and floor_ok
    _report(8, "training decay shapes", ok,
            f"contraction {worst:.4f} ≤ {target:.4f}; windowed (t+1)·gap ratio "
            f"{window_ratio:.3f} ≤ 2; batch-doubling floor ratio {floor_ratio:.3f}")


def test_criterion_09_unlearning_monotonicity():
    dim, users = 16, 10
    r = np.concatenate([np.linspace(1.0, 3.0, users - 1), [-18.0]])
    u = np.zeros(dim)
    u[0] = 1.0
    problem = LearnProblem(
        Q=np.tile(np.eye(dim), (users, 1, 1)),
        b=np.outer(r, u),
        data_sizes=np.full(users, 64),
        iota=0.25,
        noise_sigma2=1e-2,
    )
    assert np.linalg.norm(problem.w_star) < 1e-12
    schedule = StepSchedule("inverse_t", 2.0, 23.0)
    order = np.argsort(np.abs(r))
    burdens = np.abs(r[order]) ** 2
    rounds = [
        unlearn_continue(problem, UnlearnSpec(leavers=(int(i),), epsilon=0.05),
                         schedule, range(100))
        for i in order
    ]
    rho = float(stats.spearmanr(burdens, rounds).statistic)
    ok = rho >= 0.9
    _report(9, "unlearning effort monotone", ok,
            f"rounds {rounds} over 10 leaver sets, Spearman {rho:.3f}")


def test_criterion_10_shapley_axioms():
    worst_eff = worst_sym = 0.0
    for seed in range(100):
        users = 2 + seed % 5
        learn = LearnConfig(users=users, dim=5, data_size=16,
                            noise_sigma2=1e-3 if seed % 2 else 0.0, mu=0.5,
                            condition=3.0, hessian_spread=0.3, rotate=True)
        prob = make_problem(learn, seed)
        sch = StepSchedule("inverse_t", 20.0 / (12.0 * prob.smoothness), 19.0)
        phi, total = federated_shapley_exact(prob, 3, sch, seed=seed, with_total=True)
        worst_eff = max(worst_eff,
                        abs(phi.sum() - total) / max(1.0, abs(total)))
        Q, b = prob.Q.copy(), prob.b.copy()
        Q[1], b[1] = Q[0], b[0]
        twin = LearnProblem(Q=Q, b=b, data_sizes=prob.data_sizes, iota=prob.iota,
                            noise_sigma2=0.0)
        sch2 = StepSchedule("inverse_t", 20.0 / (12.0 * twin.smoothness), 19.0)
        phi2 = federated_shapley_exact(twin, 3, sch2, seed=seed)
        worst_sym = max(worst_sym, abs(phi2[0] - phi2[1]))
    ok = worst_eff <= 1e-9 and worst_sym <= 1e-9
    _report(10, "attribution axioms", ok,
            f"100 problems, worst efficiency gap {worst_eff:.2e}, "
            f"worst symmetry gap {worst_sym:.2e}")


def test_criterion_11_determinism(tmp_path):
    dirs = [str(tmp_path / "runA"), str(tmp_path / "runB")]
    for out in dirs:
        code = cli_main(["simulate", "--seed", "0", "--out-dir", out])
        assert code == 0
    names = ["contract.csv", "equilibrium.csv", "retention.csv", "summary.json"]
    same = []
    for name in names:
        with open(os.path.join(dirs[0], name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(dirs[1], name), "rb") as fh:
            second = fh.read()
        same.append(first == second)
    ok = all(same)
    _report(11, "byte-identical reruns", ok,
            f"{sum(same)}/{len(names)} output files identical across two runs")
