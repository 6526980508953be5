"""The package runs on numpy and the standard library alone; scipy is a
test-only oracle.  The learning lab's noise threads use `threading`, which
start-up already loads, take their blocks off a `collections.deque` (loaded
at start-up too) and their tokens off a `queue.SimpleQueue` (`queue` and its
`_queue` and `heapq` imports take about 0.5 ms by `python -X importtime`),
so no import pays for an executor or process pool."""
import os
import subprocess
import sys

import fedincentives

_PROBE = (
    "import sys\n"
    "import fedincentives, fedincentives.cli\n"
    "print(' '.join(sorted(sys.modules)))\n"
)


def _loaded(*packages: str) -> list[str]:
    """The modules of the given packages that importing the CLI loads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedincentives.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return [m for m in done.stdout.split() if any(m == p or m.startswith(p + ".") for p in packages)]


def test_import_loads_no_scipy():
    assert _loaded("scipy") == []


def test_import_loads_no_executor_or_process_pool():
    assert _loaded("concurrent.futures", "multiprocessing") == []
