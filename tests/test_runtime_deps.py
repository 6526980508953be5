"""The package runs on numpy and the standard library alone; scipy is a
test-only oracle."""
import os
import subprocess
import sys

import fedincentives

_PROBE = (
    "import sys\n"
    "import fedincentives, fedincentives.cli\n"
    "print(' '.join(sorted(m for m in sys.modules"
    " if m == 'scipy' or m.startswith('scipy.'))))\n"
)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedincentives.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == ""
