"""Span tracer for one traced CLI run, installed from outside the package.

Modules such as `experiments`, `cli` and `population` import their layer
functions by name, so patching only the defining module would miss their
calls.  Each entry of PATCHES therefore names the module whose code makes
the call and the attribute it calls through.

A span is [name, parent, start, end, attrs]: `parent` is the index of the
enclosing span (-1 at the root) and `attrs` holds the counts recorded at the
boundary.  Spans stay in memory until the run ends; `summarize` turns them
into the per-layer metrics.
"""
from __future__ import annotations

import importlib
import inspect
import os
import statistics
from time import perf_counter


def _users(args, result):
    return {"users": len(args["population"])}


def _sampled(args, result):
    return {"users": len(result)}


def _sweeps(args, result):
    return {"sweeps": int(result.iterations)}


def _revokers(args, result):
    return {"n": len(args["revokers"])}


def _train(args, result):
    problem = args["problem"]
    seeds = args["seeds"]
    n_seeds = len(seeds) if hasattr(seeds, "__len__") else int(seeds)
    return {
        "seed_rounds": int(args["rounds"]) * n_seeds,
        # per seed-round each user takes local_steps + 1 gradient evaluations,
        # each a dim x dim matrix-vector product of 2 dim^2 flops
        "flops": int(args["rounds"]) * n_seeds * problem.users
        * (int(args["local_steps"]) + 1) * 2 * problem.dim ** 2,
    }


def _bytes(args, result):
    return {"bytes": os.path.getsize(result)}


# (module whose code makes the call, attribute it calls, span name, attrs)
PATCHES = [
    ("cli", "main", "cli.main", None),
    ("cli", "load_config", "config.load", None),
    ("cli", "write_table", "cli.write", _bytes),
    ("cli", "run_pipeline", "experiments.pipeline", None),
    ("experiments", "run_pipeline", "experiments.pipeline", None),
    ("cli", "sample_population", "population.sample", _sampled),
    ("experiments", "sample_population", "population.sample", _sampled),
    ("population", "sample_population", "population.sample", _sampled),
    ("cli", "find_stationary_rates", "population.stationary", None),
    ("experiments", "design_contract", "contract.design", None),
    ("experiments", "lower_equilibrium", "revocation.equilibrium", _sweeps),
    ("experiments", "optimal_retention_exact", "retention.exact", _revokers),
    ("experiments", "optimal_retention_heuristic", "retention.heuristic", _revokers),
    ("experiments", "retention_incentives", "retention.incentives", None),
    ("retention", "retention_incentives", "retention.incentives", None),
    ("experiments", "stage4_realized_cost", "model.stage4", _users),
    ("cli", "scaffold_train", "learning.train", _train),
    ("cli", "check_gap_bound", "learning.check", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        params = inspect.signature(fn).parameters if attrs else {}
        names = list(params)
        defaults = {k: p.default for k, p in params.items()}

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, {}]
            self.spans.append(span)
            self._stack.append(idx)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4]["error"] = type(exc).__name__
                raise
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if attrs:
                arguments = {**defaults, **dict(zip(names, args)), **kwargs}
                span[4].update(attrs(arguments, result))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, attrs in PATCHES:
            module = importlib.import_module(f"fedincentives.{module_name}")
            setattr(module, attr, self.wrap(name, getattr(module, attr), attrs))


def _tail(samples: list[float]) -> tuple[float, float]:
    """Highest of these percentiles with at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(ordered) * (1.0 - pct / 100.0) >= 10:
            return pct, ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100.0))]
    return 0.0, 0.0


def _median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


# revoker-count buckets for the per-call retention time
BUCKETS = (("n01_10", 1, 10), ("n11_20", 11, 20), ("n21_100", 21, 100), ("n101_up", 101, None))


def summarize(spans: list[list], import_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    by_name: dict[str, list[tuple[float, float, dict]]] = {}
    for i, (name, _, t0, t1, attrs) in enumerate(spans):
        by_name.setdefault(name, []).append((t1 - t0, t1 - t0 - child[i], attrs))

    def total(name):
        return sum(d for d, _, _ in by_name.get(name, ()))

    def self_time(name):
        return sum(s for _, s, _ in by_name.get(name, ()))

    def ok(name):
        return [(d, a) for d, _, a in by_name.get(name, ()) if "error" not in a]

    def attr_sum(name, key):
        return sum(a[key] for _, a in ok(name))

    solves = ok("retention.exact") + ok("retention.heuristic")
    pipeline_ms = [d * 1e3 for d, _ in ok("experiments.pipeline")]
    tail_pct, tail_ms = _tail(pipeline_ms)
    train_s = total("learning.train")
    flops = attr_sum("learning.train", "flops")
    metrics = {
        "config.import_s": import_s,
        "config.load_s": total("config.load"),
        "model.stage4_s": total("model.stage4"),
        "model.stage4_calls": len(ok("model.stage4")),
        "model.stage4_users": attr_sum("model.stage4", "users"),
        "population.sample_s": total("population.sample"),
        "population.sample_calls": len(ok("population.sample")),
        "population.users_sampled": attr_sum("population.sample", "users"),
        "population.stationary_self_s": self_time("population.stationary"),
        "contract.design_s": total("contract.design"),
        "contract.design_calls": len(ok("contract.design")),
        "revocation.equilibrium_s": total("revocation.equilibrium"),
        "revocation.equilibrium_calls": len(ok("revocation.equilibrium")),
        "revocation.sweeps": attr_sum("revocation.equilibrium", "sweeps"),
        # exact_s includes the calls refused beyond the enumeration cap
        "retention.exact_s": total("retention.exact"),
        "retention.exact_calls": len(ok("retention.exact")),
        "retention.exact_subsets": sum(2 ** a["n"] for _, a in ok("retention.exact")),
        "retention.heuristic_s": total("retention.heuristic"),
        "retention.heuristic_calls": len(ok("retention.heuristic")),
        "retention.incentives_s": total("retention.incentives"),
        "retention.revokers_max": max((a["n"] for _, a in solves), default=0),
    }
    for label, lo, hi in BUCKETS:
        metrics[f"retention.call_ms.{label}"] = _median(
            [d * 1e3 for d, a in solves if a["n"] >= lo and (hi is None or a["n"] <= hi)]
        )
    metrics.update({
        "experiments.pipeline_calls": len(pipeline_ms),
        "experiments.pipeline_p50_ms": _median(pipeline_ms),
        "experiments.pipeline_tail_ms": tail_ms,
        "experiments.pipeline_tail_pct": tail_pct,
        "experiments.pipeline_self_s": self_time("experiments.pipeline"),
        "learning.train_s": train_s,
        "learning.train_calls": len(ok("learning.train")),
        "learning.seed_rounds": attr_sum("learning.train", "seed_rounds"),
        "learning.flops_computed": flops,
        "learning.gflops_per_s": flops / train_s / 1e9 if train_s > 0 else 0.0,
        "learning.check_s": total("learning.check"),
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": attr_sum("cli.write", "bytes"),
        "cli.self_s": self_time("cli.main"),
    })
    return metrics


# counts that must repeat exactly between two traced runs at one seed
COUNTS = (
    "model.stage4_calls",
    "population.sample_calls",
    "contract.design_calls",
    "revocation.equilibrium_calls",
    "retention.exact_calls",
    "retention.heuristic_calls",
    "experiments.pipeline_calls",
    "learning.train_calls",
    "population.users_sampled",
    "revocation.sweeps",
    "retention.exact_subsets",
    "learning.seed_rounds",
    "learning.flops_computed",
)
