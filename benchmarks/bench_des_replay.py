"""Perf-trajectory bench: reference vs vectorized vs native DES engines.

Times identical serving simulations through the reference per-event loop,
the vectorized numpy engine, and the self-compiled C backend, then runs
the fleet-day experiment head-to-head at full fleet scale. Both engines
are bit-identical by contract (``tests/test_des_equivalence.py``), so
every timing pair is the same computation — any speedup is pure
implementation. Writes ``BENCH_des_replay.json`` so future PRs can track
the DES engine's trajectory.

Run directly (CI uploads the JSON as an artifact)::

    PYTHONPATH=src python benchmarks/bench_des_replay.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from repro.analysis import format_table
from repro.config.presets import RMC1
from repro.experiments import fleet_day
from repro.hw.server import BROADWELL
from repro.serving._des_native import native_available
from repro.serving.simulator import ServingSimulator

DEFAULT_OUT = Path(__file__).parent / "BENCH_des_replay.json"

SIM_INSTANCES = 48
SIM_DURATION_S = 0.5
SIM_SEED = 7
# Full-scale head-to-head samples one window per quarter of the day.
FLEET_HOURS = (0.0, 6.0, 12.0, 18.0)
# The vectorized engine must beat the reference loop by at least this
# factor at the largest simulator size (with the C backend; the pure
# python floor is lower because the event core stays a scalar heap).
NATIVE_FLOOR = 10.0
PYTHON_FLOOR = 2.0


def _sim_once(
    engine: str, backend: str, offered_target: int
) -> tuple[float, str, int, tuple]:
    qps = offered_target / (SIM_INSTANCES * SIM_DURATION_S)
    sim = ServingSimulator(
        BROADWELL,
        RMC1,
        batch_size=4,
        num_instances=SIM_INSTANCES,
        per_instance_qps=qps,
        seed=SIM_SEED,
        engine=engine,
        backend=backend,
    )
    start_s = time.perf_counter()
    result = sim.run(SIM_DURATION_S)
    elapsed_s = time.perf_counter() - start_s
    digest = (
        result.offered,
        result.killed,
        result.shed,
        result.max_queue_depth,
        hashlib.sha256(
            np.asarray(result.latencies_s()).tobytes()
        ).hexdigest(),
    )
    backend_used = getattr(sim, "last_backend", "reference")
    return elapsed_s, backend_used, result.offered, digest


def bench_simulator(offered_targets: tuple[int, ...]) -> list[dict]:
    """Time all three backends on identical open-loop simulations."""
    rows = []
    for target in offered_targets:
        reference_s, _, offered, reference_digest = _sim_once(
            "reference", "auto", target
        )
        python_s, _, _, python_digest = _sim_once(
            "vectorized", "python", target
        )
        if python_digest != reference_digest:
            raise AssertionError("engines diverged")
        row = {
            "offered_target": int(target),
            "offered": int(offered),
            "num_instances": SIM_INSTANCES,
            "reference_s": reference_s,
            "python_s": python_s,
            "python_speedup": reference_s / python_s,
            "native_s": None,
            "native_speedup": None,
        }
        if native_available():
            native_s, backend, _, native_digest = _sim_once(
                "vectorized", "native", target
            )
            if backend != "native":
                raise AssertionError(f"native backend fell back to {backend!r}")
            if native_digest != reference_digest:
                raise AssertionError("C backend diverged")
            row["native_s"] = native_s
            row["native_speedup"] = reference_s / native_s
        rows.append(row)
    return rows


def bench_fleet_head_to_head(seed: int = 17) -> dict:
    """The fleet-day experiment, both engines, full fleet, sampled hours."""
    times = {}
    results = {}
    for engine in ("reference", "vectorized"):
        start_s = time.perf_counter()
        results[engine] = fleet_day.run(
            engine=engine, seed=seed, hours=FLEET_HOURS
        )
        times[engine] = time.perf_counter() - start_s
    if results["reference"].windows != results["vectorized"].windows:
        raise AssertionError("fleet-day engines diverged")
    reference = results["reference"]
    return {
        "hours": list(FLEET_HOURS),
        "replicas": [w.replicas for w in reference.windows],
        "offered": reference.total_offered,
        "reference_s": times["reference"],
        "vectorized_s": times["vectorized"],
        "speedup": times["reference"] / times["vectorized"],
    }


def bench_fleet_full_day(seed: int = 17) -> dict:
    """The full default-scale day, vectorized only (reference takes hours)."""
    start_s = time.perf_counter()
    result = fleet_day.run(seed=seed)
    elapsed_s = time.perf_counter() - start_s
    return {
        "windows": len(result.windows),
        "peak_replicas": result.peak_replicas,
        "offered": result.total_offered,
        "availability": result.availability,
        "vectorized_s": elapsed_s,
        "offered_per_s": result.total_offered / elapsed_s,
    }


def run_bench(
    offered_targets: tuple[int, ...] = (10_000, 100_000, 1_000_000),
    fleet: bool = True,
) -> dict:
    """Time engines on shared workloads; returns the JSON report."""
    report = {
        "bench": "des_replay",
        "config": {
            "server": "BROADWELL",
            "model": RMC1.name,
            "sim_instances": SIM_INSTANCES,
            "sim_duration_s": SIM_DURATION_S,
            "native_available": native_available(),
        },
        "simulator": bench_simulator(offered_targets),
    }
    if fleet:
        report["fleet_head_to_head"] = bench_fleet_head_to_head()
        report["fleet_full_day"] = bench_fleet_full_day()
    return report


def check_floors(report: dict) -> None:
    """Assert the speedup floors the engine contract promises."""
    largest = max(report["simulator"], key=lambda r: r["offered_target"])
    if report["config"]["native_available"]:
        if not largest["native_speedup"] >= NATIVE_FLOOR:
            raise AssertionError(
                f"native speedup {largest['native_speedup']:.1f}x below "
                f"{NATIVE_FLOOR:.0f}x floor at {largest['offered_target']:,}"
            )
    else:
        if not largest["python_speedup"] >= PYTHON_FLOOR:
            raise AssertionError(
                f"python speedup {largest['python_speedup']:.1f}x below "
                f"{PYTHON_FLOOR:.0f}x floor at {largest['offered_target']:,}"
            )
    full_day = report.get("fleet_full_day")
    if full_day is not None:
        if full_day["offered"] < 1_000_000:
            raise AssertionError("fleet day below 1M requests")
        if full_day["peak_replicas"] < 1_000:
            raise AssertionError("fleet below 1000 replicas")


def render(report: dict) -> str:
    """Text tables of one bench report."""
    sim_rows = [
        [
            f"{r['offered']:,}",
            f"{r['reference_s']:.3f}",
            f"{r['python_s']:.3f}",
            f"{r['python_speedup']:.1f}x",
            "-" if r["native_s"] is None else f"{r['native_s']:.3f}",
            "-"
            if r["native_speedup"] is None
            else f"{r['native_speedup']:.1f}x",
        ]
        for r in report["simulator"]
    ]
    parts = [
        format_table(
            [
                "offered", "reference s", "python s", "speedup",
                "native s", "speedup",
            ],
            sim_rows,
            title=(
                f"DES engine wallclock, {SIM_INSTANCES}-instance simulator "
                "(bit-identical records)"
            ),
        )
    ]
    head = report.get("fleet_head_to_head")
    if head is not None:
        parts.append(
            f"fleet head-to-head ({len(head['hours'])} windows, "
            f"{max(head['replicas'])} replicas at peak, "
            f"{head['offered']:,} offered): reference "
            f"{head['reference_s']:.1f} s, vectorized "
            f"{head['vectorized_s']:.1f} s ({head['speedup']:.1f}x)"
        )
    full_day = report.get("fleet_full_day")
    if full_day is not None:
        parts.append(
            f"full day (vectorized): {full_day['offered']:,} offered across "
            f"{full_day['windows']} windows, peak "
            f"{full_day['peak_replicas']} replicas, "
            f"{full_day['vectorized_s']:.1f} s wall "
            f"({full_day['offered_per_s']:,.0f} requests/s)"
        )
    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="JSON report path"
    )
    parser.add_argument(
        "--offered",
        type=int,
        nargs="+",
        default=[10_000, 100_000, 1_000_000],
        help="simulator offered-load sizes to time",
    )
    parser.add_argument(
        "--skip-fleet",
        action="store_true",
        help="skip the (minutes-long) fleet-day sections",
    )
    args = parser.parse_args(argv)
    report = run_bench(tuple(args.offered), fleet=not args.skip_fleet)
    check_floors(report)
    print(render(report))
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
