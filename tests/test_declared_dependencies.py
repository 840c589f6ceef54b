"""The package runs on its declared dependencies alone.

``pyproject.toml`` declares only numpy. A module that imports scipy (or
any other undeclared package) at module top breaks it on a clean
install, and nothing else notices when the test environment has the
package anyway. This test blocks scipy in a fresh interpreter, imports
every module of the package there, and runs the CLI.

``import repro`` itself imports no subpackage, and the CLI imports only
the experiment it runs, so each run pays for what it uses.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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

import importlib
import pkgutil

import repro
import repro.__main__

for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
    importlib.import_module(info.name)

status = repro.__main__.main(["table1"])
try:
    import scipy
except ModuleNotFoundError:
    sys.exit(status)
sys.exit("the scipy block did not hold")
"""


_LOADED_AFTER = """
import sys

import {module}

print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""


def _run(source: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_DIR, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", source],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_cli_runs_with_scipy_blocked():
    proc = _run(_BLOCKED_RUN)
    assert proc.returncode == 0, proc.stderr
    assert "Table I" in proc.stdout


_LOADED = {
    "repro": ["repro"],
    "repro.__main__": ["repro", "repro.__main__", "repro.experiments"],
}


@pytest.mark.parametrize("module", list(_LOADED))
def test_import_loads_no_subsystem(module):
    proc = _run(_LOADED_AFTER.format(module=module))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == _LOADED[module]
