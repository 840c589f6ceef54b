"""The shared native-kernel loader: build cache races and build failures.

Every C kernel (cache replay, NMP replay, DES) is compiled and loaded by
:func:`repro.hw._native.load_library`. These tests pin its contract:
processes racing on one fresh build cache all get a loadable kernel, a
compiler that exists but fails is reported once per kernel with its
stderr, and a disabled or missing compiler falls back quietly.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.hw._native as native
from repro.hw.hierarchy import CacheHierarchy
from repro.hw.server import BROADWELL

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

# Each worker announces itself, waits until every worker is up, then
# builds: the builds overlap on one cache directory.
_RACE_WORKER = """
import os, sys, time, warnings
warnings.simplefilter("error", RuntimeWarning)
barrier, me, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
open(os.path.join(barrier, me), "w").close()
for _ in range(2000):
    if len(os.listdir(barrier)) >= n:
        break
    time.sleep(0.005)
from repro.hw._native import load_kernel
sys.exit(0 if load_kernel() is not None else 1)
"""


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A fresh build cache and an empty per-process library table."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
    monkeypatch.setattr(native, "_LIBRARIES", {})
    return tmp_path


def _runtime_warnings(call) -> tuple[object, list[str]]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    messages = [
        str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)
    ]
    return result, messages


@pytest.mark.skipif(
    native._compiler() is None or os.environ.get("REPRO_DISABLE_NATIVE") == "1",
    reason="no C compiler",
)
def test_racing_processes_all_load_the_kernel(tmp_path):
    workers = 4
    barrier = tmp_path / "barrier"
    barrier.mkdir()
    env = dict(os.environ)
    env["REPRO_NATIVE_CACHE"] = str(tmp_path / "cache")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_DIR, env.get("PYTHONPATH")])
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RACE_WORKER, str(barrier), str(i), str(workers)],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        for i in range(workers)
    ]
    errors = [p.communicate(timeout=300)[1] for p in procs]
    assert [p.returncode for p in procs] == [0] * workers, errors
    cache = sorted(path.name for path in (tmp_path / "cache").iterdir())
    # One source and one shared object; no private temp file left behind.
    assert len(cache) == 2 and not any(name.startswith(".") for name in cache)


def test_failed_build_warns_once_and_falls_back(fresh_loader, monkeypatch):
    monkeypatch.setenv("CC", "false")
    kernel, messages = _runtime_warnings(native.load_kernel)
    assert kernel is None
    assert len(messages) == 1 and "'repro_replay'" in messages[0]
    assert "exit status 1" in messages[0]
    # The failure is cached per kernel: no second build, no second warning.
    hierarchy, messages = _runtime_warnings(
        lambda: CacheHierarchy(BROADWELL, engine="vectorized")
    )
    assert messages == []
    assert hierarchy.backend == "python"
    hierarchy.access_lines(np.arange(64, dtype=np.int64))
    assert hierarchy.stats.dram_accesses == 64


def test_failed_build_warning_carries_compiler_stderr(fresh_loader, monkeypatch):
    fake_cc = fresh_loader / "fake-cc"
    fake_cc.write_text(
        "#!/bin/sh\necho 'kernel.c:1: error: no such header' >&2\nexit 3\n"
    )
    fake_cc.chmod(0o755)
    monkeypatch.setenv("CC", str(fake_cc))
    kernel, messages = _runtime_warnings(native.load_kernel)
    assert kernel is None
    assert len(messages) == 1
    assert "'repro_replay'" in messages[0] and "no such header" in messages[0]


def test_disabled_or_missing_compiler_is_quiet(fresh_loader, monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    kernel, messages = _runtime_warnings(native.load_kernel)
    assert kernel is None and messages == []

    monkeypatch.delenv("REPRO_DISABLE_NATIVE")
    monkeypatch.setattr(native, "_LIBRARIES", {})
    monkeypatch.delenv("CC", raising=False)
    monkeypatch.setenv("PATH", str(fresh_loader))  # no cc, gcc or clang
    kernel, messages = _runtime_warnings(native.load_kernel)
    assert kernel is None and messages == []
