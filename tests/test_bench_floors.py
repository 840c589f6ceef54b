"""The replay benches' speedup floors reject a report just below them.

``benchmarks/bench_{cache,des,nmp}_replay.py`` are scripts, not a
package, so each is loaded by path. Only ``check_floors`` runs here, on
synthetic reports: no timing happens in tier-1.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_DIR = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_DIR / "benchmarks"


def load_bench(name: str):
    path = BENCH_DIR / f"bench_{name}_replay.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}_replay", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def just_below(floor: float) -> float:
    return math.nextafter(floor, 0.0)


class TestCacheReplayFloor:
    @pytest.fixture(scope="class")
    def bench(self):
        return load_bench("cache")

    def report(self, speedup: float, backend: str = "native") -> dict:
        # The floor applies at the largest size only.
        return {
            "results": [
                {"lookups": 1_000_000, "speedup": speedup, "backend": backend},
                {"lookups": 100_000, "speedup": 1.0, "backend": backend},
            ]
        }

    def test_rejects_just_below_floor(self, bench):
        with pytest.raises(AssertionError, match="below"):
            bench.check_floors(self.report(just_below(bench.NATIVE_FLOOR)))

    def test_accepts_floor(self, bench):
        bench.check_floors(self.report(bench.NATIVE_FLOOR))

    def test_no_floor_without_kernel(self, bench):
        bench.check_floors(self.report(1.0, backend="python"))


class TestNmpReplayFloor:
    @pytest.fixture(scope="class")
    def bench(self):
        return load_bench("nmp")

    def report(self, speedup: float) -> dict:
        return {
            "config": {"native_available": True},
            "results": [
                {"lookups": 1_000_000, "native_speedup": speedup},
                {"lookups": 100_000, "native_speedup": 1.0},
            ],
        }

    def test_rejects_just_below_floor(self, bench):
        with pytest.raises(AssertionError, match="below"):
            bench.check_floors(self.report(just_below(bench.NATIVE_FLOOR)))

    def test_accepts_floor(self, bench):
        bench.check_floors(self.report(bench.NATIVE_FLOOR))


class TestDesReplayFloor:
    @pytest.fixture(scope="class")
    def bench(self):
        return load_bench("des")

    def report(
        self,
        native: float | None,
        python: float,
        offered: int = 1_000_000,
        peak_replicas: int = 1_000,
    ) -> dict:
        return {
            "config": {"native_available": native is not None},
            "simulator": [
                {
                    "offered_target": 1_000_000,
                    "native_speedup": native,
                    "python_speedup": python,
                },
                {
                    "offered_target": 10_000,
                    "native_speedup": native and 1.0,
                    "python_speedup": 1.0,
                },
            ],
            "fleet_full_day": {
                "offered": offered,
                "peak_replicas": peak_replicas,
            },
        }

    def test_rejects_native_just_below_floor(self, bench):
        with pytest.raises(AssertionError, match="native speedup"):
            bench.check_floors(
                self.report(just_below(bench.NATIVE_FLOOR), bench.PYTHON_FLOOR)
            )

    def test_rejects_python_just_below_floor(self, bench):
        with pytest.raises(AssertionError, match="python speedup"):
            bench.check_floors(
                self.report(None, just_below(bench.PYTHON_FLOOR))
            )

    def test_rejects_fleet_day_below_scale_bar(self, bench):
        floors = (bench.NATIVE_FLOOR, bench.PYTHON_FLOOR)
        with pytest.raises(AssertionError, match="1M requests"):
            bench.check_floors(self.report(*floors, offered=999_999))
        with pytest.raises(AssertionError, match="1000 replicas"):
            bench.check_floors(self.report(*floors, peak_replicas=999))

    def test_accepts_floors(self, bench):
        bench.check_floors(self.report(bench.NATIVE_FLOOR, bench.PYTHON_FLOOR))
        bench.check_floors(self.report(None, bench.PYTHON_FLOOR))


# ``python -O`` strips ``assert`` statements; the floors must still hold.
_CHECK_UNDER_O = """
import importlib.util, json, sys

if not sys.flags.optimize:
    sys.exit("not running under -O")
spec = importlib.util.spec_from_file_location("bench", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
try:
    module.check_floors(json.loads(sys.argv[2]))
except AssertionError as exc:
    print(exc)
    sys.exit(0)
sys.exit("check_floors accepted a report below its floor")
"""


def _below_floor_reports():
    cache, nmp, des = (load_bench(n) for n in ("cache", "nmp", "des"))
    des_report = TestDesReplayFloor().report
    return [
        pytest.param(
            "cache",
            TestCacheReplayFloor().report(just_below(cache.NATIVE_FLOOR)),
            id="cache",
        ),
        pytest.param(
            "nmp",
            TestNmpReplayFloor().report(just_below(nmp.NATIVE_FLOOR)),
            id="nmp",
        ),
        pytest.param(
            "des",
            des_report(just_below(des.NATIVE_FLOOR), des.PYTHON_FLOOR),
            id="des",
        ),
        pytest.param(
            "des",
            des_report(None, just_below(des.PYTHON_FLOOR)),
            id="des-python",
        ),
        pytest.param(
            "des",
            des_report(des.NATIVE_FLOOR, des.PYTHON_FLOOR, offered=999_999),
            id="des-fleet",
        ),
    ]


@pytest.mark.parametrize("name,report", _below_floor_reports())
def test_floor_holds_under_optimize(name, report):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_DIR / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-O",
            "-c",
            _CHECK_UNDER_O,
            str(BENCH_DIR / f"bench_{name}_replay.py"),
            json.dumps(report),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "below" in proc.stdout
