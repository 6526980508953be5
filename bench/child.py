"""One CLI run in a fresh interpreter, timed from the inside.

    python3 bench/child.py RESULT_JSON run|trace|setup CLI-ARGS...

`run` calls `fedincentives.cli.main(CLI-ARGS)`; `trace` does the same with
the span tracer installed; `setup` stops once the package is imported and
the config (CLI-ARGS may hold `--config PATH`) is loaded, and describes
both.  RESULT_JSON receives monotonic timestamps for interpreter start,
import done and config loaded, which the parent compares with the moment
it spawned this process, and the process's peak RSS.
"""
import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def _describe(setup) -> dict:
    """The config values a workload's unit count and output shape follow."""
    exp, learn = setup.experiment, setup.learn
    return {
        "type_counts": [t.count for t in setup.types],
        "trials": exp.trials,
        "user_counts": list(exp.user_counts),
        "mechanisms": len(exp.mechanisms),
        "grid_points": len(exp.p_grid) * len(exp.q_grid),
        "sweep_trials": exp.sweep_trials,
        "refine_steps": exp.refine_steps,
        "refine_trials": exp.refine_trials,
        "rounds": learn.rounds,
        "seeds": learn.seeds,
    }


def _machine() -> dict:
    import os
    import platform
    from importlib.metadata import version

    blas = {}
    try:
        import numpy

        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("name") for k in ("blas", "lapack")}
    except (ImportError, TypeError, AttributeError):
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in threads},
    }


def _peak_rss_mb() -> float:
    """High-water RSS (VmHWM) of this process's own address space, in MB;
    unlike the rusage of a vforked child it does not count the parent's."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def main() -> int:
    result_path, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import fedincentives.cli as cli

    record = {"started": STARTED, "imported": time.monotonic()}
    load_config = cli.load_config

    def timed_load_config(path=None):
        setup = load_config(path)
        record.setdefault("loaded", time.monotonic())
        return setup

    cli.load_config = timed_load_config
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if mode == "setup":
        config = cli_args[cli_args.index("--config") + 1] if "--config" in cli_args else None
        record["config"] = _describe(cli.load_config(config))
        record["machine"] = _machine()
        code = 0
    else:
        code = cli.main(cli_args)
    record["exit"] = code
    if tracer is not None:
        record["spans"] = tracer.spans
    record["peak_rss_mb"] = _peak_rss_mb()
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
