"""Command-line front end.

Subcommands map to the pipeline stages and experiment harnesses:

  contract       Stage-I menu with participation/self-selection report
  equilibrium    Stage-III revocation equilibrium of the sampled population's play
  retain         Stage-IV retention choice and incentives
  simulate       full four-stage run, all outputs
  compare        benchmark cost table over mechanisms and population sizes
  sweep          stationary churn-rate search over a (p, q) grid
  verify-bounds  convergence shape checks on the synthetic learning lab

Exit codes: 0 success, 1 configuration error or unwritable output, 2 numeric
or infeasibility error, 3 failed strict bound verification.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .config import load_config
from .contract import verify_ir_ic
from .experiments import (
    MECHANISMS,
    compare_costs,
    find_stationary_rates,
    mechanism_contract,
    run_pipeline,
)
from .learning import StepSchedule, check_gap_bound, make_problem, scaffold_train
from .population import sample_population
from .revocation import upper_equilibrium

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer, np.bool_)):  # bool is an int
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % float(value)
    return str(value)


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_table(out_dir: str, name: str, columns: list[str], rows, fmt: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "json":
        path = os.path.join(out_dir, name + ".json")
        _write_json(path, [
            {col: (_fmt(row[i]) if isinstance(row[i], float) else row[i]) for i, col in enumerate(columns)}
            for row in rows
        ])
        return path
    path = os.path.join(out_dir, name + ".csv")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _write_contract(args, contract) -> str:
    block_of = [b for b, blk in enumerate(contract.blocks) for _ in blk]
    columns = (contract.d, contract.r, contract.pi, contract.kappa, contract.A, contract.B)
    rows = [
        [int(t) + 1, *values, b]
        for t, *values, b in zip(contract.order, *columns, block_of)
    ]
    return write_table(
        args.out_dir,
        "contract",
        ["type", "d", "rL", "pi", "kappa", "A", "B", "block_id"],
        rows,
        args.format,
    )


def _write_equilibrium(args, population, revoke) -> str:
    rows = [
        [i, int(population.type_idx[i]) + 1, float(population.loss[i]), int(revoke[i])]
        for i in range(len(population))
    ]
    return write_table(
        args.out_dir, "equilibrium", ["user", "type", "loss", "revoke"], rows, args.format
    )


def _write_retention(args, outcome) -> str:
    rows = [
        [
            int(u),
            float(outcome.population.shapley[u]),
            int(outcome.retained[u]),
            float(outcome.incentives[u]),
        ]
        for u in np.flatnonzero(outcome.revoke)
    ]
    return write_table(
        args.out_dir, "retention", ["user", "shapley", "retained", "rU"], rows, args.format
    )


def _cmd_contract(args, setup) -> int:
    contract = mechanism_contract(args.mechanism, setup.types, setup.cfg)
    report = verify_ir_ic(contract, setup.types, setup.cfg)
    path = _write_contract(args, contract)
    pooled = sum(1 for blk in contract.blocks if len(blk) > 1)
    print(f"contract: {len(contract.d)} items, {len(contract.blocks)} blocks"
          f" ({pooled} pooled), written to {path}")
    # a worst slack no larger than the violation floor is rounding noise
    ir, ic = (0.0 if abs(s) <= -report.floor else s for s in (report.worst_ir, report.worst_ic))
    print(f"participation check: worst IR slack {ir:.6g}, worst IC slack {ic:.6g}, "
          f"{'no violations' if report.ok else f'{len(report.violations)} violations'}")
    return 0 if report.ok else 2


def _pipeline(args, setup):
    contract = mechanism_contract(args.mechanism, setup.types, setup.cfg)
    population = sample_population(setup.types, setup.sampling, setup.cfg.seed)
    return run_pipeline(args.mechanism, contract, setup.types, setup.cfg, population)


def _cmd_equilibrium(args, setup) -> int:
    outcome = _pipeline(args, setup)
    upper = upper_equilibrium(outcome.terms, setup.cfg, outcome.q_bar)
    path = _write_equilibrium(args, outcome.population, outcome.revoke)
    n_rev = int(np.sum(outcome.revoke))
    print(f"equilibrium: {n_rev}/{len(outcome.population)} revoke after {outcome.sweeps} sweeps,"
          f" written to {path}")
    if not np.array_equal(outcome.revoke, upper.x):
        extra = int(np.sum(upper.x)) - n_rev
        print(f"note: extremal equilibria differ ({extra} users revoke only in the greatest one)")
    return 0


def _cmd_retain(args, setup) -> int:
    outcome = _pipeline(args, setup)
    path = _write_retention(args, outcome)
    n_kept = int(np.sum(outcome.retained))
    n_rev = int(np.sum(outcome.revoke))
    negatives = int(np.sum(outcome.incentives < 0))
    print(f"retention: kept {n_kept}/{n_rev} revokers, written to {path}")
    if negatives:
        print(f"note: {negatives} retention incentives are negative (charges to stay)")
    return 0


def _cmd_simulate(args, setup) -> int:
    outcome = _pipeline(args, setup)
    population = outcome.population
    _write_contract(args, outcome.contract)
    _write_equilibrium(args, population, outcome.revoke)
    _write_retention(args, outcome)
    summary = {
        "mechanism": outcome.mechanism,
        "seed": setup.cfg.seed,
        "users": len(population),
        "cost": _fmt(outcome.cost),
        "cost_parts": {k: _fmt(v) for k, v in sorted(outcome.cost_parts.items())},
        "p_hat": _fmt(outcome.p_hat),
        "q_hat": _fmt(outcome.q_hat),
        "payoff_mean": _fmt(float(np.mean(outcome.payoffs))),
    }
    # the tables above made out_dir
    _write_json(os.path.join(args.out_dir, "summary.json"), summary)
    print(f"simulate[{outcome.mechanism}]: cost {outcome.cost:.6g}, "
          f"realized rates ({outcome.p_hat:.4g}, {outcome.q_hat:.4g}), "
          f"outputs in {args.out_dir}")
    return 0


def _cmd_compare(args, setup) -> int:
    exp = setup.experiment
    rows = compare_costs(setup.types, setup.cfg, setup.sampling, exp)
    columns = ["mechanism", "I", "cost_mean", "cost_stderr", "payoff_mean"]
    table = [[r[c] for c in columns] for r in rows]
    path = write_table(args.out_dir, "compare", columns, table, args.format)
    print(f"compare: {len(rows)} rows over {exp.trials} trials, written to {path}")
    largest = max(r["I"] for r in rows)
    at_top = {r["mechanism"]: r["cost_mean"] for r in rows if r["I"] == largest}
    if "RAR" in at_top:
        for other in sorted(at_top):
            if other == "RAR" or at_top[other] == 0:
                continue
            cut = 100.0 * (at_top[other] - at_top["RAR"]) / abs(at_top[other])
            print(f"  RAR vs {other} at I={largest}: cost reduction {cut:.2f}%")
    return 0


def _cmd_sweep(args, setup) -> int:
    exp = setup.experiment
    search = find_stationary_rates(setup.types, setup.cfg, setup.sampling, exp)
    columns = ["p", "q", "p_hat", "q_hat", "cost"]
    table = [[r[c] for c in columns] for r in search.grid]
    path = write_table(args.out_dir, "sweep", columns, table, args.format)
    print(f"sweep: {len(search.grid)} grid points, written to {path}")
    print(f"stationary rates: p* = {search.p_star:.6g}, q* = {search.q_star:.6g}"
          f" ({'refined' if exp.refine_steps > 0 else 'grid point'})")
    return 0


def _cmd_verify_bounds(args, setup) -> int:
    learn = setup.learn
    problem = make_problem(learn, setup.cfg.seed)
    checks: list[tuple[str, bool, str]] = []

    # 1. noiseless contraction at the stability-cap stepsize
    quiet = replace(problem, noise_sigma2=0.0)
    eta = quiet.step_cap
    w0 = quiet.w_star + np.ones(quiet.dim) / np.sqrt(quiet.dim)
    trace0 = scaffold_train(
        quiet, 40, StepSchedule("constant", eta), [0], w0=w0, local_steps=learn.local_steps
    )
    target = 1.0 - quiet.mu * eta / 2.0
    worst = float(np.max(trace0.gap[1:] / trace0.gap[:-1]))
    ok1 = worst <= target + 1e-6
    checks.append(("geometric contraction", ok1, f"worst ratio {worst:.6g} vs {target:.6g}"))

    # 2. decay envelope under the configured schedule
    schedule = learn.make_schedule()
    trace = scaffold_train(
        problem,
        learn.rounds,
        schedule,
        learn.seeds,
        w0=problem.w_star,
        local_steps=learn.local_steps,
    )
    report = check_gap_bound(trace, problem)
    rows = [
        [int(t), float(g), float(e), float(bd)]
        for t, g, e, bd in zip(trace.rounds, trace.gap, trace.gap_stderr, report["bound"])
    ]
    path = write_table(
        args.out_dir, "bounds", ["t", "gap_mean", "gap_stderr", "bound"], rows, args.format
    )
    if schedule.kind == "inverse_t" and learn.rounds >= 60:
        hi = min(500, learn.rounds)
        scaled = (trace.rounds[50 : hi + 1] + 1.0) * trace.gap[50 : hi + 1]
        ratio = float(np.max(scaled) / scaled[0])
        ok2 = ratio <= 2.0
        checks.append(("scaled-gap boundedness", ok2, f"max/(t=50) ratio {ratio:.4g}"))
    print(f"bounds: fitted envelope constant {report['b_min']:.6g}, written to {path}")

    # 3. halving the noise floor by doubling every batch
    if problem.noise_sigma2 > 0:
        half_rounds = max(60, learn.rounds // 2)
        flat = StepSchedule("constant", problem.step_cap / 2.0)
        doubled = replace(problem, data_sizes=problem.data_sizes * 2)
        tails = []
        for prob in (problem, doubled):
            tr = scaffold_train(
                prob, half_rounds, flat, learn.seeds, w0=prob.w_star,
                local_steps=learn.local_steps,
            )
            lo = half_rounds // 2
            tails.append(float(np.mean(tr.gap[lo:])))
        ratio = tails[1] / tails[0]
        ok3 = 0.4 <= ratio <= 0.6
        checks.append(("batch-doubling noise floor", ok3, f"plateau ratio {ratio:.4g}"))

    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    if failed and args.strict:
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedincentives",
        description="contract design, revocation equilibria and retention incentives",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "contract": _cmd_contract,
        "equilibrium": _cmd_equilibrium,
        "retain": _cmd_retain,
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "verify-bounds": _cmd_verify_bounds,
    }
    for name, func in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config path (packaged default if omitted)")
        p.add_argument("--seed", type=int, default=None, help="root seed (config seed if omitted)")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name in ("contract", "equilibrium", "retain", "simulate"):
            p.add_argument("--mechanism", choices=MECHANISMS, default="RAR")
        if name in ("compare", "sweep"):
            # the [experiment] field --trials sets; main checks it by that field's rule
            field = "trials" if name == "compare" else "sweep_trials"
            p.add_argument("--trials", type=int, default=None, help=f"override [experiment] {field}")
            p.set_defaults(trials_field=field)
        if name == "verify-bounds":
            p.add_argument("--strict", action="store_true", help="exit 3 on failed checks")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        setup = load_config(args.config)
        if args.seed is not None:
            setup.cfg = replace(setup.cfg, seed=args.seed)
        if getattr(args, "trials", None) is not None:
            setup.experiment = replace(setup.experiment, **{args.trials_field: args.trials})
    except ValueError as exc:
        # ConfigError subclasses ValueError; a domain rule broken while loading,
        # or by the --seed or --trials override, is a configuration problem too
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args, setup)
    except (ValueError, ZeroDivisionError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path that cannot be written is the caller's setting
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
