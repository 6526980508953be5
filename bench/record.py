"""Record the outputs every workload must reproduce, and the machine.

    python3 bench/record.py [--workload NAME]

Runs each workload (or the one named) once per seed in SEEDS, untraced
and one at a time, checks its outputs, and writes their sha256 with the
machine description and the git commit of the sources to
`bench/baseline.json`.  Re-record only when a change is meant to alter
outputs.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time

from run import BASELINE, ROOT, WORK, WORKLOADS, invoke, probe

# seed 0 is the packaged default; 104729 is held out from tuning the benchmark
DEFAULT_SEED, HELD_OUT_SEED = 0, 104729
SEEDS = [*range(16), HELD_OUT_SEED]


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="record only this one")
    args = parser.parse_args(argv)
    outputs = json.loads(BASELINE.read_text())["outputs"] if BASELINE.exists() else {}
    machine = None
    for name in [args.workload] if args.workload else WORKLOADS:
        w = WORKLOADS[name]
        deadline = time.monotonic() + 3600.0
        setup = probe(w, WORK / "record" / "setup", deadline)
        if setup.error:
            print(f"{name}: set-up failed: {setup.error}", file=sys.stderr)
            return 1
        machine = setup.record["machine"]
        outputs[name] = {}
        for seed in SEEDS:
            child = invoke(w, "run", seed, WORK / "record" / "run", setup.record["config"], deadline)
            if child.error:
                print(f"{name} seed {seed}: {child.error}", file=sys.stderr)
                return 1
            outputs[name][str(seed)] = child.hashes
            print(f"{name} seed {seed}: {child.wall_s:.2f} s {child.hashes}", flush=True)
    shutil.rmtree(WORK / "record", ignore_errors=True)
    baseline = {
        "commit": _commit(),
        "machine": machine,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "outputs": outputs,
    }
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
