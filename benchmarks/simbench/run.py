"""simbench: the simulator's own host speed, end to end and per layer.

Runs one named workload in a single process with one thread, prints
every metric by name with its unit, checks every output, and ends with
one JSON line::

    python3 benchmarks/simbench/run.py --workload sls-locality --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with span recording off.
``--trace 1`` is a separate run on the same inputs that records spans
around every layer call, reports the per-layer metrics, the tracing
overhead and a cProfile breakdown by ``repro`` module, and writes the
spans to ``.simbench/`` at the repository root. See ``README.md`` here.
"""

from __future__ import annotations

import time

_PROCESS_START_S = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: One thread: pin the BLAS/OpenMP pools before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Independent set-ups per run; ``setup_s`` uses their median, so a
#: one-off cost such as the first kernel compile does not set it.
SETUP_REPS = 3
#: Rounds each timed phase runs at least, however long they take.
MIN_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "units_per_s": "units/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

#: Per-layer metrics of the traced run (``--trace 1``). Times ending in
#: ``_s`` are host seconds: per set-up for set-up layers, per round for
#: the rest, each the median over set-ups or rounds. A layer a workload
#: does not use reads 0.
PER_LAYER = {
    "setup.import_s": "s",
    "core.table_build_s": "s",
    "data.synth_s": "s",
    "data.synth_ns_per_lookup": "ns",
    "serving.loadgen.gen_s": "s",
    "serving.loadgen.ns_per_arrival": "ns",
    "serving.domains.storm_s": "s",
    "serving.faults.events": "count",
    "hw.timing.build_s": "s",
    "core.line_trace_s": "s",
    "core.lines": "count",
    "hw.cache.replay_s": "s",
    "hw.cache.ns_per_line": "ns",
    "hw.cache.llc_miss_ratio": "ratio",
    "hw.cache.llc_mpki": "1/kinstr",
    "memory.nmp.replay_s": "s",
    "memory.nmp.ns_per_lookup": "ns",
    "memory.nmp.hot_hit_ratio": "ratio",
    "memory.nmp.rank_imbalance": "ratio",
    "serving.router.run_s": "s",
    "serving.router.ns_per_request": "ns",
    "serving.router.attempts_per_request": "ratio",
    "serving.router.useful_attempt_ratio": "ratio",
    "serving.router.shed_frac": "ratio",
    "serving.router.availability": "ratio",
    "serving.sim.run_s": "s",
    "serving.sim.ns_per_request": "ns",
    "serving.sim.native_frac": "ratio",
    "serving.sim.shed_frac": "ratio",
    "obs.read_s": "s",
    "analysis.summary_s": "s",
    "analysis.samples": "count",
    "bench.glue_s": "s",
    "trace.traced_units_per_s": "units/s",
    "trace.untraced_units_per_s": "units/s",
    "trace.overhead_ratio": "ratio",
    "host.slowdown": "ratio",
}

#: cProfile buckets reported as ``prof.<bucket>.self_frac``: every repro
#: module holding at least 1% of self time on some workload at the commit
#: that defined the benchmark, plus numpy, the ctypes kernel wrappers
#: (``native``) and everything else (``other``, which also absorbs repro
#: modules not listed here).
PROFILE_BUCKETS = (
    "analysis.distributions",
    "core.operators.sls",
    "hw.timing",
    "obs.profile",
    "serving.des",
    "serving.faults",
    "serving.overload",
    "serving.router",
    "serving.simulator",
    "numpy",
    "native",
    "other",
)
for _bucket in PROFILE_BUCKETS:
    PER_LAYER[f"prof.{_bucket}.self_frac"] = "ratio"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class HostProbe:
    """Fixed work, timed between rounds, that tracks the host's speed.

    Other tenants of a shared host slow this process down by up to ~2x
    for seconds to minutes at a time. The probe is a small heap-driven
    event loop over a 100k-object list, a loop of small numpy calls and a
    random gather over 16 MB: the same kinds of work as the simulator's
    event cores, routers and replays, but none of ``repro``'s code, so no
    change to the program moves it.
    End-to-end host times are scaled by the probe's slowdown against a
    quiet host, ``probe / NOMINAL_S`` (README.md, "Host noise").
    """

    #: Typical median probe time between rounds on the 2-vCPU x86-64 VM
    #: (2.1 GHz, Python 3.11, numpy 2.4) the benchmark was defined on. It
    #: only sets the scale of the corrected numbers.
    NOMINAL_S = 0.008
    #: Probe at most this often, which keeps its cost near 4% of a run.
    EVERY_S = 0.2

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(20200222)
        self._np = np
        self._rng = rng
        self._queues = np.zeros(64)
        self._table = rng.integers(0, 1 << 20, size=1 << 21)
        self._gather = rng.integers(0, 1 << 21, size=1 << 16)
        self._objects = [[i, 0.0] for i in range(100_000)]
        self._order = rng.integers(0, 100_000, size=4_000).tolist()
        self._delays_s = rng.random(4_000).tolist()
        self.samples_s: list[float] = []
        self.checksum = 0
        self._last_s = 0.0

    def sample(self) -> float:
        """Time the fixed work once; keeps and returns the seconds."""
        start_s = time.perf_counter()
        heap: list[tuple[float, int, int]] = []
        now_s = 0.0
        busy_s = [0.0] * 64
        for k, (i, delay_s) in enumerate(zip(self._order, self._delays_s)):
            self._objects[i][1] += delay_s
            heapq.heappush(heap, (now_s + delay_s, k, k & 63))
            if len(heap) > 256:
                now_s, _, machine = heapq.heappop(heap)
                busy_s[machine] += now_s
        np, queues = self._np, self._queues
        for _ in range(400):
            queues[int(self._rng.integers(0, 64))] += 1.0
            queues[int(np.argmin(queues))] += 0.5
        self.checksum = int(self._table[self._gather].sum()) + int(max(busy_s))
        self._last_s = time.perf_counter()
        self.samples_s.append(self._last_s - start_s)
        return self.samples_s[-1]

    def due(self) -> bool:
        """True once ``EVERY_S`` has passed since the last sample."""
        return time.perf_counter() - self._last_s >= self.EVERY_S

    def slowdown(self) -> float:
        """Median probe time over the nominal one (1.0 on a quiet host)."""
        return _median(self.samples_s) / self.NOMINAL_S


class Phase:
    """Rounds of one timed phase: host seconds, units and their spans."""

    def __init__(self) -> None:
        self.round_s: list[float] = []
        self.units: list[float] = []
        self.spans: list[list] = []
        #: (rounds completed, probe seconds) for each probe sample.
        self.probes: list[tuple[int, float]] = []

    def rate(self) -> float:
        """Median over rounds of units per host second."""
        return _median([u / s for u, s in zip(self.units, self.round_s)])

    def steady_rate(self) -> float:
        """Median over rounds of units per host second at nominal speed.

        Each round's rate is scaled by the slowdown the first probe after
        it measured, so a round and its correction see the same host.
        """
        scaled = []
        pending = 0
        for done, probe_s in self.probes:
            for units, round_s in zip(
                self.units[pending:done], self.round_s[pending:done]
            ):
                scaled.append(units / round_s * probe_s / HostProbe.NOMINAL_S)
            pending = done
        return _median(scaled)


def timed_phase(workload, rec, seconds: float, probe: HostProbe) -> Phase:
    """Run whole rounds until ``seconds`` have passed (and MIN_ROUNDS)."""
    workload.rec = rec
    phase = Phase()
    start_s = time.perf_counter()
    while True:
        mark = workload.rec.mark()
        round_start_s = time.perf_counter()
        units = workload.round()
        round_end_s = time.perf_counter()
        phase.round_s.append(round_end_s - round_start_s)
        phase.units.append(units)
        phase.spans.append(workload.rec.since(mark))
        done = round_end_s - start_s >= seconds and len(phase.round_s) >= MIN_ROUNDS
        if done or probe.due():
            phase.probes.append((len(phase.round_s), probe.sample()))
        if done:
            return phase


def setup_workload(
    name: str, seed: int, trace: bool, scale: float, reps: int, probe: HostProbe
):
    """Build the workload ``reps`` times; returns the last build and timings."""
    from spans import Recorder
    from workloads import WORKLOADS

    factory = WORKLOADS[name]
    setup_times_s: list[float] = []
    setup_spans: list[list] = []
    digests: list[str] = []
    workload = None
    for _ in range(reps):
        workload = None  # free the previous build before the next one
        rec = Recorder(trace)
        start_s = time.perf_counter()
        workload = factory(seed, rec, scale)
        setup_times_s.append(time.perf_counter() - start_s)
        probe.sample()
        setup_spans.append(rec.spans)
        digests.append(workload.inputs_digest())
    return workload, setup_times_s, setup_spans, digests


def _setup_layers(setup_spans: list[list], counts: dict[str, float]) -> dict:
    from spans import self_time_by_name

    per_rep = [self_time_by_name(spans) for spans in setup_spans]

    def med(*names: str) -> float:
        return _median([sum(rep.get(n, 0.0) for n in names) for rep in per_rep])

    synth_s = med("data.sparse.synth")
    gen_s = med("serving.loadgen.gen")
    lookups = counts.get("lookups", 0.0)
    arrivals = counts.get("arrivals", 0.0)
    return {
        "core.table_build_s": med("core.sls.build"),
        "data.synth_s": synth_s,
        "data.synth_ns_per_lookup": 1e9 * synth_s / lookups if lookups else 0.0,
        "serving.loadgen.gen_s": gen_s,
        "serving.loadgen.ns_per_arrival": 1e9 * gen_s / arrivals if arrivals else 0.0,
        "serving.domains.storm_s": med("serving.domains.storm", "serving.faults.storm"),
        "serving.faults.events": counts.get("fault_events", 0.0),
        "hw.timing.build_s": med("hw.timing.build"),
    }


#: Per-round metrics taken from span self times: metric -> span name.
ROUND_SELF_S = {
    "core.line_trace_s": "core.sls.line_trace",
    "hw.cache.replay_s": "hw.cache.replay",
    "memory.nmp.replay_s": "memory.nmp.replay",
    "serving.router.run_s": "serving.router.run",
    "serving.sim.run_s": "serving.sim.run",
    "obs.read_s": "obs.profile.read",
    "analysis.summary_s": "analysis.latency.summary",
}
#: Per-round host nanoseconds per counted unit: metric -> (span, count).
ROUND_NS_PER = {
    "hw.cache.ns_per_line": ("hw.cache.replay", "lines"),
    "memory.nmp.ns_per_lookup": ("memory.nmp.replay", "lookups"),
    "serving.router.ns_per_request": ("serving.router.run", "offered"),
    "serving.sim.ns_per_request": ("serving.sim.run", "offered"),
}
#: Per-round counts recorded at span boundaries: metric -> (span, count).
ROUND_COUNTS = {
    "core.lines": ("core.sls.line_trace", "lines"),
    "analysis.samples": ("analysis.latency.summary", "samples"),
}


def _round_layers(phase: Phase) -> dict:
    """Per-round medians of span self times, per-unit costs and counts."""
    from spans import counts_by_name, self_time_by_name

    rows = []
    for spans in phase.spans:
        self_s = self_time_by_name(spans)
        counts = counts_by_name(spans)
        row = {m: self_s.get(span, 0.0) for m, span in ROUND_SELF_S.items()}
        for metric, (span, key) in ROUND_COUNTS.items():
            row[metric] = counts.get(span, {}).get(key, 0.0)
        for metric, (span, key) in ROUND_NS_PER.items():
            n = counts.get(span, {}).get(key, 0.0)
            row[metric] = 1e9 * self_s.get(span, 0.0) / n if n else 0.0
        row["bench.glue_s"] = sum(
            v for k, v in self_s.items() if k.startswith("bench.")
        )
        rows.append(row)
    return {key: _median([row[key] for row in rows]) for key in rows[0]}


def _profile(workload, seconds: float, probe: HostProbe) -> tuple[dict, dict]:
    """Self-time shares over whole rounds under cProfile.

    Returns the ``prof.*`` metrics and the self seconds of every bucket.
    """
    from spans import Recorder, profile_self_time

    kept = len(probe.samples_s)
    profile_self_time_s = profile_self_time(
        lambda: timed_phase(workload, Recorder(False), seconds, probe)
    )
    del probe.samples_s[kept:]  # cProfile slows the probe too
    total_s = sum(profile_self_time_s.values())
    shares = {f"prof.{b}.self_frac": 0.0 for b in PROFILE_BUCKETS}
    for bucket, bucket_s in profile_self_time_s.items():
        name = bucket[len("repro.") :] if bucket.startswith("repro.") else bucket
        key = f"prof.{name}.self_frac"
        if key not in shares:
            key = "prof.other.self_frac"
        shares[key] += bucket_s / total_s
    return shares, profile_self_time_s


def provenance(workload, seed: int) -> dict:
    """Seed, backends used and expected, native status, toolchain."""
    import numpy as np
    from workloads import native_status

    used = workload.backends()
    expected = workload.expected_backends()
    return {
        "workload": workload.name,
        "units": workload.unit,
        "seed": seed,
        "backends": used,
        "expected_backends": expected,
        "backend_ok": used == expected,
        "native": native_status(),
        "REPRO_DISABLE_NATIVE": os.environ.get("REPRO_DISABLE_NATIVE"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float,
    scale: float = 1.0,
    setup_reps: int = SETUP_REPS,
    out_dir: Path = ROOT / ".simbench",
) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the full report."""
    from spans import Recorder

    probe = HostProbe()
    workload, setup_times_s, setup_spans, digests = setup_workload(
        name, seed, trace, scale, setup_reps, probe
    )
    raw_setup_s = import_s + _median(setup_times_s)
    inputs_ok = len(set(digests)) == 1

    # Warm-up: the first round fills lazy caches and records the
    # simulated statistics the digest covers; it is not timed.
    workload.rec = Recorder(False)
    workload.round()
    report: dict = {"setup_times_s": setup_times_s, "inputs_digest": digests[0]}
    if trace:
        rec = Recorder(True)
        traced = timed_phase(workload, rec, seconds, probe)
        untraced = timed_phase(workload, Recorder(False), seconds / 2, probe)
        metrics_raw = dict.fromkeys(PER_LAYER, 0.0)
        metrics_raw["setup.import_s"] = import_s
        metrics_raw.update(_setup_layers(setup_spans, workload.setup_counts))
        metrics_raw.update(_round_layers(traced))
        metrics_raw.update(workload.layer_counts())
        metrics_raw["trace.traced_units_per_s"] = traced.steady_rate()
        metrics_raw["trace.untraced_units_per_s"] = untraced.steady_rate()
        metrics_raw["trace.overhead_ratio"] = (
            untraced.steady_rate() / traced.steady_rate()
        )
        metrics_raw["host.slowdown"] = probe.slowdown()
        shares, report["profile_self_s"] = _profile(workload, seconds / 4, probe)
        metrics_raw.update(shares)
        metrics = {k: _metric(metrics_raw[k], u) for k, u in PER_LAYER.items()}
        report["spans"] = rec.to_jsonable()
        report["setup_spans"] = [
            [s.name, s.start_s, s.end_s, s.self_s, s.counts]
            for spans in setup_spans
            for s in spans
        ]
    else:
        phase = timed_phase(workload, Recorder(False), seconds, probe)
        slowdown = probe.slowdown()
        steady_rate = phase.steady_rate()
        report["raw"] = {
            "setup_s": raw_setup_s,
            "units_per_s": phase.rate(),
            "slowdown": slowdown,
            "probe_s": probe.samples_s,
            "round_s": phase.round_s,
            "round_units": phase.units,
            "probes": phase.probes,
        }
        metrics_raw = {
            "setup_s": raw_setup_s / slowdown,
            "units_per_s": steady_rate,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
    workload.rec = Recorder(False)
    workload.crosscheck()
    attempted, failed = workload.attempted, workload.failed
    if not trace:
        metrics_raw["ok_frac"] = 1.0 - failed / attempted
        metrics = {k: _metric(metrics_raw[k], u) for k, u in END_TO_END.items()}

    prov = provenance(workload, seed)
    simulated = {
        "first_round": workload.first_round,
        "layer_counts": workload.layer_counts(),
        "setup_counts": workload.setup_counts,
    }
    digest = hashlib.sha256(
        json.dumps(simulated, sort_keys=True).encode()
    ).hexdigest()
    correct = failed == 0 and inputs_ok and prov["backend_ok"]
    report.update(
        {
            "provenance": prov,
            "simulated_digest": digest,
            "simulated": simulated,
            "inputs_consistent": inputs_ok,
            "errors": workload.errors[:20],
            "metrics": metrics,
        }
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    report["path"] = str(path)
    return result, report


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"simbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro  # noqa: F401 - timed: part of set-up

    import_s = time.perf_counter() - _PROCESS_START_S
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"simbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, report = run(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s
    )
    prov = report["provenance"]
    print(f"simbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"simulated digest {report['simulated_digest']}")
    if not prov["backend_ok"]:
        print("FLAG: expected backend did not engage; do not compare this run")
    for error in report["errors"]:
        print(f"failed: {error}")
    for key, metric in result["metrics"].items():
        print(f"  {key:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"report {report['path']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
