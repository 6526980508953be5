"""End-to-end benchmark of the fedincentives CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout; the package is imported from
`src/` in a fresh interpreter per CLI run, one run at a time.  With
`--trace 0` the CLI runs untraced for about S seconds (at least twice) and
the end-to-end metrics are medians over those runs; set-up is also probed
on its own until there are five set-up samples.  With `--trace 1` one
untraced run is followed by at least two traced runs and the per-layer
metrics come from the spans of the traced ones, whose counts must repeat
exactly and whose pipeline runs or seed-rounds must match the config.
Every run's outputs are checked: exit code, header, row count and finite
values, the same bytes from every run at one seed, and the sha256 recorded
in `bench/baseline.json` where that seed was recorded.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  `--workload all` prints every end-to-end metric of every
workload as a table instead.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
BASELINE = BENCH / "baseline.json"
RUN_LIMIT_S = 170.0
MIN_RUNS = 2
MIN_SETUP_SAMPLES = 5

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    cli: tuple
    output: str
    columns: tuple
    rows: Callable[[dict], int]
    units: Callable[[dict], int]
    unit: str
    # recorded outputs must match; False only reports whether they changed
    exact: bool = True
    # config values the benchmark-owned INI must load with
    expect: dict = field(default_factory=dict)


COMPARE = ("mechanism", "I", "cost_mean", "cost_stderr", "payoff_mean")


def _compare_rows(c):
    return len(c["user_counts"]) * c["mechanisms"]


def _compare_units(c):
    return len(c["user_counts"]) * c["trials"] * c["mechanisms"]


def _bounds_units(c):
    # verify-bounds: 40 noiseless rounds on one seed, the configured run,
    # then two noise-floor runs of max(60, rounds // 2) rounds
    return 40 + c["rounds"] * c["seeds"] + 2 * max(60, c["rounds"] // 2) * c["seeds"]


WORKLOADS = {
    "sweep-small": Workload(
        ("sweep", "--config", "bench/sweep_small.ini"), "sweep.csv",
        ("p", "q", "p_hat", "q_hat", "cost"),
        rows=lambda c: c["grid_points"],
        units=lambda c: c["grid_points"] * c["sweep_trials"] + c["refine_steps"] * c["refine_trials"],
        unit="pipeline runs", expect={"type_counts": [200] * 5},
    ),
    "compare-default": Workload(
        ("compare",), "compare.csv", COMPARE, _compare_rows, _compare_units, "pipeline runs"
    ),
    "bounds-lab": Workload(
        ("verify-bounds", "--strict"), "bounds.csv", ("t", "gap_mean", "gap_stderr", "bound"),
        rows=lambda c: c["rounds"] + 1, units=_bounds_units, unit="seed-rounds",
    ),
    "retain-large": Workload(
        ("compare", "--config", "bench/retain_large.ini"), "compare.csv", COMPARE,
        _compare_rows, _compare_units, "pipeline runs", exact=False,
        expect={"type_counts": [10000] * 5, "user_counts": [20000, 35000, 50000], "trials": 20},
    ),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _per_layer_unit(name: str) -> str:
    if name.endswith(("_calls", "_users", "_sampled", ".sweeps", "_subsets", "_rounds", "_max")):
        return "count"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_computed"):
        return "flop"
    if name.endswith("gflops_per_s"):
        return "GFLOP/s"
    if name.endswith("bytes_written"):
        return "B"
    return "ms" if "_ms" in name else "s"


@dataclass
class Child:
    """One spawned interpreter: timings seen from both sides, and its outputs."""

    wall_s: float
    rss_mb: float
    record: dict
    error: str = ""
    hashes: dict = field(default_factory=dict)
    setup_s: float = 0.0
    work_s: float = 0.0


def _spawn(mode: str, args: list, out: Path, deadline: float) -> Child:
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    result = out / "child.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "child.py"), str(result), mode, *args]
    with open(out / "child.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
        watchdog.start()
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.monotonic()
    try:
        record = json.loads(result.read_text())
    except (OSError, ValueError):
        record = {}
    child = Child(wall_s=end - start, rss_mb=record.get("peak_rss_mb", 0.0), record=record)
    if proc.returncode != 0:
        tail = (out / "child.log").read_text(errors="replace").strip().splitlines()[-1:]
        child.error = f"exit code {proc.returncode}" + (f": {tail[0]}" if tail else "")
    elif "loaded" not in record:
        child.error = "no timing record"
    else:
        child.setup_s = record["loaded"] - start
        child.work_s = end - record["loaded"]
    return child


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _check_outputs(w: Workload, child: Child, out: Path, config: dict) -> None:
    """Header, row count and finite values of the workload's table."""
    path = out / "out" / w.output
    if not path.exists():
        child.error = f"missing output {w.output}"
        return
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    if not table or tuple(table[0]) != w.columns:
        child.error = f"{w.output}: unexpected header"
    elif len(table) - 1 != w.rows(config):
        child.error = f"{w.output}: {len(table) - 1} rows, expected {w.rows(config)}"
    elif not all(
        _finite(v) for row in table[1:] for col, v in zip(w.columns, row) if col != "mechanism"
    ):
        child.error = f"{w.output}: non-finite value"
    child.hashes = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted((out / "out").iterdir())
    }


def probe(w: Workload, out: Path, deadline: float) -> Child:
    """Set-up only: import the package and load the workload's config."""
    args = list(w.cli[w.cli.index("--config"):][:2]) if "--config" in w.cli else []
    child = _spawn("setup", args, out, deadline)
    config = child.record.get("config", {})
    for key, value in w.expect.items():
        if config.get(key) != value:
            child.error = child.error or f"config {key} = {config.get(key)!r}, expected {value!r}"
    return child


def invoke(w: Workload, mode: str, seed: int, out: Path, config: dict, deadline: float) -> Child:
    """One CLI run of the workload, untraced (`run`) or traced (`trace`)."""
    child = _spawn(mode, [*w.cli, "--seed", str(seed), "--out-dir", str(out / "out")], out, deadline)
    if not child.error:
        _check_outputs(w, child, out, config)
    return child


def _remove(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # other work directories remain


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    notes: list


def measure(name: str, seed: int, seconds: float, trace: bool) -> Result:
    w = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    work = WORK / f"{name}-{seed}"
    notes: list[str] = []
    children: list[Child] = []

    def spawn(mode: str) -> Child:
        out = work / f"{mode}{len(children)}"
        if mode == "setup":
            child = probe(w, out, deadline)
        else:
            child = invoke(w, mode, seed, out, config, deadline)
        children.append(child)
        return child

    def more(runs: list[Child], minimum: int) -> bool:
        if runs and runs[-1].error:
            return False
        if len(runs) < minimum:
            return True
        typical = statistics.median(c.wall_s for c in runs)
        return time.monotonic() - start + typical <= seconds

    first = spawn("setup")
    if first.error:
        _remove(work)
        return Result(False, 1, 1, {}, [f"set-up probe failed: {first.error}"])
    config = first.record["config"]
    notes.append(
        "machine: nproc={nproc} python={python} numpy={numpy} scipy={scipy} blas={blas} "
        "thread env={blas_threads_env}".format(**first.record["machine"])
    )

    untraced: list[Child] = []
    traced: list[Child] = []
    if trace:
        untraced.append(spawn("run"))
        while more(traced, 2):
            traced.append(spawn("trace"))
    else:
        while more(untraced, MIN_RUNS):
            untraced.append(spawn("run"))
        while sum(not c.error for c in children) < MIN_SETUP_SAMPLES and time.monotonic() < deadline - 10:
            spawn("setup")

    runs = untraced + traced
    failed = [c for c in children if c.error]
    for c in failed:
        notes.append(f"failed: {c.error}")
    good = [c for c in runs if not c.error]
    correct = not failed and bool(good)
    if len({json.dumps(c.hashes, sort_keys=True) for c in good}) > 1:
        correct = False
        notes.append("outputs differ between runs at one seed")
    recorded = json.loads(BASELINE.read_text())["outputs"].get(name, {}).get(str(seed))
    if good and recorded is not None:
        same = good[0].hashes == recorded
        if w.exact and not same:
            correct = False
            notes.append(f"outputs differ from those recorded for seed {seed}")
        elif w.exact:
            notes.append(f"outputs match those recorded for seed {seed}")
        else:
            notes.append(f"outputs_changed: {int(not same)} (sha256 {good[0].hashes})")
    elif good:
        notes.append(f"no outputs recorded for seed {seed}: checked shape and repeatability only")

    metrics: dict[str, float] = {}
    units = END_TO_END
    notes.append(f"fail_rate = {len(failed) / len(children):.4g} of {len(children)} processes")
    if trace:
        traced_ok = [c for c in traced if not c.error]
        layers = [
            tracer.summarize(c.record["spans"], c.record["imported"] - c.record["started"])
            for c in traced_ok
        ]
        if layers and not untraced[0].error:
            for key in tracer.COUNTS:
                if len({m[key] for m in layers}) > 1:
                    correct = False
                    notes.append(f"count {key} differs between traced runs")
            unit_key = "learning.seed_rounds" if w.unit == "seed-rounds" else "experiments.pipeline_calls"
            if layers[0][unit_key] != w.units(config):
                correct = False
                notes.append(f"{unit_key} = {layers[0][unit_key]}, expected {w.units(config)}")
            metrics = {k: statistics.median([m[k] for m in layers]) for k in layers[0]}
            metrics["trace.overhead_s"] = (
                statistics.median([c.wall_s for c in traced_ok]) - untraced[0].wall_s
            )
        units = {k: _per_layer_unit(k) for k in metrics}
    elif good:
        units_done = w.units(config)
        setups = [c.setup_s for c in children if not c.error]
        metrics = {
            "wall_s": statistics.median([c.wall_s for c in good]),
            "setup_s": statistics.median(setups),
            "units_per_s": statistics.median([units_done / c.work_s for c in good]),
            "peak_rss_mb": statistics.median([c.rss_mb for c in good]),
        }
        notes.append(
            f"medians of {len(good)} CLI runs of {units_done} {w.unit} "
            f"and {len(setups)} set-up samples"
        )
    _remove(work)
    return Result(
        correct=correct and bool(metrics),
        attempted=len(children),
        failed=len(failed),
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        notes=notes,
    )


def _report_all(seed: int, seconds: float) -> int:
    print(f"{'workload':<16} {'metric':<12} {'median':>14}  unit")
    ok = True
    for name in WORKLOADS:
        res = measure(name, seed, seconds, trace=False)
        ok = ok and res.correct
        rows = [(k, m["value"], m["unit"]) for k, m in res.metrics.items()]
        rows.append(("fail_rate", res.failed / res.attempted, "ratio"))
        for key, value, unit in rows:
            print(f"{name:<16} {key:<12} {value:>14.6g}  {unit}")
        for note in res.notes:
            if not note.startswith(("machine", "fail_rate")):
                print(f"{name:<16} {note}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds, so that the CLI run it waits on is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "fedincentives" / "cli.py").is_file():
        print(f"error: no fedincentives sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # compile once so that no timed run pays for writing bytecode
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "fedincentives")], check=True
    )
    if args.workload == "all":
        return _report_all(args.seed, args.seconds)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in res.notes:
        print(note)
    for key, m in res.metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": res.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
