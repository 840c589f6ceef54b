"""Perf-trajectory bench: reference vs vectorized cache-replay engines.

Times the same production-like SLS lookup trace through both
``CacheHierarchy`` engines at 100k and 1M lookups and writes
``BENCH_cache_replay.json`` (wallclock, speedup, trace size, backend) so
future PRs can track the replay engine's trajectory. The vectorized
engine's contract is bit-identical stats, so the two timings are the same
computation — any speedup is pure implementation.

Floor (asserted by :func:`check_floors`, like the NMP and DES replay
benches): on the native kernel, ≥10x over the reference engine at the
largest trace size (1M lookups by default). Without a compiler the
vectorized engine runs the reference loop itself (``backend ==
"python"``), so there is no floor to check.

Run directly (CI uploads the JSON as an artifact)::

    PYTHONPATH=src python benchmarks/bench_cache_replay.py
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.analysis import format_table
from repro.core.operators import EmbeddingTable, SparseLengthsSum
from repro.data.sparse import TemporalReuseGenerator
from repro.hw.hierarchy import CacheHierarchy
from repro.hw.server import BROADWELL

DEFAULT_OUT = Path(__file__).parent / "BENCH_cache_replay.json"

TABLE_ROWS = 1_000_000
EMBEDDING_DIM = 32
REUSE_PROBABILITY = 0.55  # production-like moderate temporal reuse (Fig 14)

# Contract floor at the largest trace size (see check_floors).
NATIVE_FLOOR = 10.0


def _replay_once(engine: str, lines: np.ndarray) -> tuple[float, str, dict]:
    hierarchy = CacheHierarchy(BROADWELL, engine=engine)
    start_s = time.perf_counter()
    hierarchy.access_lines(lines)
    elapsed_s = time.perf_counter() - start_s
    stats = hierarchy.stats
    digest = {
        "l1_hits": stats.l1_hits,
        "l2_hits": stats.l2_hits,
        "l3_hits": stats.l3_hits,
        "dram_accesses": stats.dram_accesses,
    }
    return elapsed_s, hierarchy.backend, digest


def run_bench(lookups_list: tuple[int, ...] = (100_000, 1_000_000)) -> dict:
    """Time both engines on shared traces; returns the JSON report."""
    rng = np.random.default_rng(2020)
    table = EmbeddingTable(TABLE_ROWS, EMBEDDING_DIM)
    sls = SparseLengthsSum("bench", table, lookups_per_sample=80)
    generator = TemporalReuseGenerator(
        table.rows, 1, reuse_probability=REUSE_PROBABILITY
    )
    results = []
    for lookups in lookups_list:
        rows = generator.ids(lookups, rng)
        lines = sls.line_trace_for_rows(rows)
        reference_s, _, reference_stats = _replay_once("reference", lines)
        vectorized_s, backend, vectorized_stats = _replay_once(
            "vectorized", lines
        )
        if reference_stats != vectorized_stats:
            raise AssertionError("engines diverged")
        results.append(
            {
                "lookups": int(lookups),
                "trace_lines": int(lines.size),
                "reference_s": reference_s,
                "vectorized_s": vectorized_s,
                "speedup": reference_s / vectorized_s,
                "backend": backend,
                "dram_accesses": reference_stats["dram_accesses"],
            }
        )
    return {
        "bench": "cache_replay",
        "config": {
            "server": "BROADWELL",
            "table_rows": TABLE_ROWS,
            "embedding_dim": EMBEDDING_DIM,
            "reuse_probability": REUSE_PROBABILITY,
        },
        "results": results,
    }


def check_floors(report: dict) -> None:
    """Assert the speedup floor the engine contract promises."""
    largest = max(report["results"], key=lambda r: r["lookups"])
    if largest["backend"] == "native":
        if not largest["speedup"] >= NATIVE_FLOOR:
            raise AssertionError(
                f"native speedup {largest['speedup']:.1f}x below "
                f"{NATIVE_FLOOR:.0f}x floor at {largest['lookups']:,} lookups"
            )


def render(report: dict) -> str:
    """Text table of one bench report."""
    rows = [
        [
            f"{r['lookups']:,}",
            f"{r['trace_lines']:,}",
            f"{r['reference_s']:.3f}",
            f"{r['vectorized_s']:.3f}",
            f"{r['speedup']:.1f}x",
            r["backend"],
        ]
        for r in report["results"]
    ]
    return format_table(
        ["lookups", "lines", "reference s", "vectorized s", "speedup", "backend"],
        rows,
        title="Cache-replay engine wallclock (bit-identical stats)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="JSON report path"
    )
    parser.add_argument(
        "--lookups",
        type=int,
        nargs="+",
        default=[100_000, 1_000_000],
        help="trace sizes to time",
    )
    args = parser.parse_args(argv)
    report = run_bench(tuple(args.lookups))
    print(render(report))
    check_floors(report)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
