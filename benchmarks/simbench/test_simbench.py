"""Tests of the simbench harness itself (not collected by tier-1).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/simbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Per-operation input sizes relative to the benchmark's, for quick runs.
TINY = 0.02

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name: str, trace: bool, tmp_path: Path, seed: int = 3):
    return run.run(
        name,
        seed,
        seconds=0.01,
        trace=trace,
        import_s=0.5,
        scale=TINY,
        setup_reps=1,
        out_dir=tmp_path,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    def digest(seed: int) -> str:
        return WORKLOADS[name](seed, Recorder(False), TINY).inputs_digest()

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_its_checks(name, tmp_path):
    result, report = tiny_run(name, trace=False, tmp_path=tmp_path)
    assert result["correct"], report["errors"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert report["provenance"]["backend_ok"]
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = tiny_run("colo-native", trace=trace, tmp_path=tmp_path)
        printed = {k: m["unit"] for k, m in result["metrics"].items()}
        assert printed == declared[kind]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_traced_run_writes_spans_with_parents_and_counts(tmp_path):
    _, report = tiny_run("sls-locality", trace=True, tmp_path=tmp_path)
    saved = json.loads(Path(report["path"]).read_text())
    spans = saved["spans"]
    names = {s["name"] for s in spans}
    assert {"core.sls.line_trace", "hw.cache.replay", "memory.nmp.replay"} <= names
    for span in spans:
        assert span["end_s"] >= span["start_s"]
        assert span["self_s"] >= 0.0
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["op"] == span["op"]
            assert parent["start_s"] <= span["start_s"] <= span["end_s"] <= parent["end_s"]
    replays = [s for s in spans if s["name"] == "hw.cache.replay"]
    assert all(s["counts"]["lines"] > 0 for s in replays)


def test_injected_wrong_output_counts_as_failed(tmp_path, monkeypatch):
    from repro.serving import ServingSimulator

    real_run = ServingSimulator.run

    def corrupted(self, duration_s=1.0):
        result = real_run(self, duration_s)
        result.offered = len(result.records) - 1  # loses a request
        return result

    monkeypatch.setattr(ServingSimulator, "run", corrupted)
    result, _ = tiny_run("colo-native", trace=False, tmp_path=tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_injected_cache_miscount_counts_as_failed(tmp_path, monkeypatch):
    from repro.hw.hierarchy import CacheHierarchy

    real_access = CacheHierarchy.access_lines

    def miscounted(self, lines):
        real_access(self, lines)
        self.stats.dram_accesses += 1

    monkeypatch.setattr(CacheHierarchy, "access_lines", miscounted)
    result, report = tiny_run("sls-locality", trace=False, tmp_path=tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("cache" in error for error in report["errors"])


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "simbench")
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "colo-native",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_steady_rate_scales_each_round_by_the_next_probe():
    phase = run.Phase()
    phase.units = [100.0, 100.0, 100.0]
    phase.round_s = [1.0, 2.0, 1.0]
    nominal_s = run.HostProbe.NOMINAL_S
    # The second round ran on a host twice as slow, and its probe saw it.
    phase.probes = [(1, nominal_s), (2, 2 * nominal_s), (3, nominal_s)]
    assert phase.rate() == 100.0
    assert phase.steady_rate() == 100.0
