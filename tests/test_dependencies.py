"""The simulator runs on the standard library alone.

pyproject.toml declares no runtime dependencies; this pins that no
simulator package pulls a third-party numeric library in at import
time.  Checked in a fresh interpreter, because the test runner's own
process may already have numpy loaded by a plugin.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_simulator_imports_do_not_load_numpy():
    code = ("import sys\n"
            "import repro.machine, repro.network, repro.jsim, repro.apps\n"
            "print('numpy' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, timeout=120,
                            env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
