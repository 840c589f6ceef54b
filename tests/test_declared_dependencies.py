"""The package runs on its declared dependencies alone.

``pyproject.toml`` declares only numpy. A module that imports scipy (or
any other undeclared package) at module top breaks ``import repro`` on a
clean install, and nothing else notices when the test environment has
the package anyway. This test blocks scipy in a fresh interpreter and
runs the CLI there.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

_BLOCKED_RUN = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, BlockScipy())

import repro
import repro.__main__

status = repro.__main__.main(["table1"])
try:
    import scipy
except ModuleNotFoundError:
    sys.exit(status)
sys.exit("the scipy block did not hold")
"""


def test_cli_runs_with_scipy_blocked():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_DIR, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_RUN],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Table I" in proc.stdout
