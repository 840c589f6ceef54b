"""The four simbench workloads: inputs, operations, output checks, digests.

Each workload is built from the benchmark's ``--seed`` alone: the seed
feeds ``np.random.SeedSequence`` and the program's own generators, and
the layers under test receive only the generated arrays, traces and
schedules. Construction (``__init__``) is the set-up the harness times;
:meth:`Workload.round` runs one fixed amount of work (every trace or
sweep point once) through the layers' public entry points with the fast
path selected explicitly (``engine="vectorized"``, ``backend="auto"``).

Every operation's output is checked; an operation that raises or fails a
check counts as failed. :meth:`Workload.crosscheck` replays a short
slice through ``engine="reference"`` and requires bit-identical results.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from repro.analysis import instruction_estimate
from repro.config import RMC1_SMALL, RMC2_SMALL, RMC3_SMALL
from repro.core.operators import EmbeddingTable, SparseLengthsSum
from repro.data.sparse import (
    TemporalReuseGenerator,
    UniformSparseGenerator,
    ZipfSparseGenerator,
)
from repro.hw import BROADWELL, SKYLAKE
from repro.hw._native import native_available as cache_native_available
from repro.hw.hierarchy import CacheHierarchy
from repro.hw.timing import TimingModel
from repro.memory import NearMemorySystem, NmpGeometry, nmp_native_available
from repro.obs import MetricsRegistry, OpProfiler
from repro.serving import (
    SLA,
    AdmissionPolicy,
    BreakerPolicy,
    FleetTopology,
    OverloadConfig,
    ResiliencePolicy,
    ResilientRouter,
    ServingSimulator,
    check_conservation,
    domain_storm,
    expand_to_schedule,
    fault_storm,
)
from repro.serving._des_native import native_available as des_native_available
from repro.serving.loadgen import DiurnalLoadGenerator, LoadSpike

from spans import Recorder


class CheckFailed(Exception):
    """An operation returned an output that breaks a stated invariant."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


def _seeds(seed: int, stream: int, count: int) -> list[int]:
    """``count`` independent 32-bit seeds for one workload stream."""
    state = np.random.SeedSequence([seed, stream]).generate_state(count)
    return [int(s) for s in state]


def _sha(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def native_disabled() -> bool:
    """True when ``REPRO_DISABLE_NATIVE=1`` turns every C kernel off."""
    return os.environ.get("REPRO_DISABLE_NATIVE") == "1"


class Workload:
    """Base of the workloads: counts attempts and failures per operation.

    Subclasses build their inputs in ``__init__`` and implement
    :meth:`_ops` (one callable per operation of a round). Each callable
    returns ``(units, digest_entry)``: the work it completed (lookups or
    offered requests) and the simulated statistics it produced.
    """

    name = ""
    unit = ""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_round: list | None = None
        self.setup_counts: dict[str, float] = {}

    def _ops(self) -> list:
        raise NotImplementedError

    def round(self) -> float:
        """Run every operation once; returns the units of work completed."""
        units = 0.0
        digests = []
        for op in self._ops():
            self.attempted += 1
            self.rec.op_id = self.attempted
            try:
                op_units, entry = op()
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                self.failed += 1
                self.errors.append(f"{type(exc).__name__}: {exc}")
                digests.append(None)
                continue
            units += op_units
            digests.append(entry)
        if self.first_round is None:
            self.first_round = digests
        return units

    def crosscheck(self) -> None:
        """Run the reference-engine comparisons, counting each as an op."""
        for check in self._crosschecks():
            self.attempted += 1
            try:
                check()
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                self.failed += 1
                self.errors.append(f"crosscheck {type(exc).__name__}: {exc}")

    def _crosschecks(self) -> list:
        raise NotImplementedError

    def inputs_digest(self) -> str:
        """Hash of every generated input the layers receive."""
        raise NotImplementedError

    def backends(self) -> dict[str, str]:
        """Backend each layer actually ran on in the last round."""
        raise NotImplementedError

    def expected_backends(self) -> dict[str, str]:
        """Backend each layer should run on here."""
        raise NotImplementedError

    def layer_counts(self) -> dict[str, float]:
        """Per-layer ratios of the first round's simulated counts.

        Keys are per-layer metric names; a workload whose first round
        produced nothing returns an empty dict.
        """
        raise NotImplementedError


# ------------------------------------------------------------- sls-locality


#: RMC2-shaped SLS over a 1M-row, dim-32 table (128 MB): far larger than
#: Broadwell's LLC, so uniform traces miss to DRAM.
TABLE_ROWS = 1_000_000
EMBEDDING_DIM = 32
LOOKUPS_PER_POOL = 80
LOOKUPS_PER_TRACE = 40_000

#: Fig 14's unique-ID axis, from uniform (~98% unique, working set far
#: beyond the LLC and the 2048 NMP hot rows) to heavy reuse (~8% unique
#: over a 1024-row history: 128 KB, inside L2 and the NMP hot caches).
LOCALITY_LADDER = (
    ("uniform", None),
    ("zipf-1.0", 1.0),
    ("reuse-0.5", (0.5, 4096)),
    ("reuse-0.92", (0.92, 1024)),
)


class SlsLocality(Workload):
    """SLS line trace → Broadwell cache hierarchy → NMP replay, per trace."""

    name = "sls-locality"
    unit = "lookups"

    def __init__(self, seed: int, rec: Recorder, scale: float = 1.0) -> None:
        super().__init__(rec)
        lookups = max(
            LOOKUPS_PER_POOL,
            int(LOOKUPS_PER_TRACE * scale) // LOOKUPS_PER_POOL * LOOKUPS_PER_POOL,
        )
        seeds = _seeds(seed, 1, len(LOCALITY_LADDER) + 1)
        with rec.span("core.sls.build"):
            table = EmbeddingTable(
                TABLE_ROWS, EMBEDDING_DIM, rng=np.random.default_rng(seeds[-1])
            )
            self.sls = SparseLengthsSum(
                "simbench", table, lookups_per_sample=LOOKUPS_PER_POOL
            )
        with rec.span("hw.timing.build") as span:
            self.nmp = NearMemorySystem(
                NmpGeometry(), engine="vectorized", backend="auto"
            )
            # Loads (first time: compiles) the cache-replay kernel.
            self.cache_backend = CacheHierarchy(
                BROADWELL, engine="vectorized", backend="auto"
            ).backend
            span.count(objects=2)
        self.traces: list[tuple[str, np.ndarray]] = []
        with rec.span("data.sparse.synth") as span:
            for (label, shape), trace_seed in zip(LOCALITY_LADDER, seeds):
                rng = np.random.default_rng(trace_seed)
                if shape is None:
                    generator = UniformSparseGenerator(TABLE_ROWS, LOOKUPS_PER_POOL)
                elif isinstance(shape, float):
                    generator = ZipfSparseGenerator(
                        TABLE_ROWS, LOOKUPS_PER_POOL, alpha=shape
                    )
                else:
                    generator = TemporalReuseGenerator(
                        TABLE_ROWS,
                        LOOKUPS_PER_POOL,
                        reuse_probability=shape[0],
                        history=shape[1],
                    )
                self.traces.append((label, generator.ids(lookups, rng)))
            span.count(lookups=lookups * len(self.traces))
        self.lengths = np.full(
            lookups // LOOKUPS_PER_POOL, LOOKUPS_PER_POOL, dtype=np.int64
        )
        self.setup_counts["lookups"] = float(lookups * len(self.traces))

    def inputs_digest(self) -> str:
        return _sha(self.lengths, *(rows for _, rows in self.traces))

    def _replay(self, rows: np.ndarray, engine: str) -> tuple[dict, dict]:
        """One trace through the three layers, each with fresh state."""
        rec = self.rec
        with rec.span("core.sls.line_trace") as span:
            lines = self.sls.line_trace_for_rows(rows)
            span.count(lines=lines.size)
        with rec.span("hw.cache.replay") as span:
            hierarchy = CacheHierarchy(BROADWELL, engine=engine, backend="auto")
            hierarchy.access_lines(lines)
            stats = hierarchy.stats
            span.count(lines=lines.size, llc_misses=stats.dram_accesses)
        with rec.span("memory.nmp.replay") as span:
            if engine == "vectorized":
                nmp = self.nmp
                nmp.reset()
            else:
                nmp = NearMemorySystem(NmpGeometry(), engine=engine)
            result = nmp.replay(rows, self.lengths[: rows.size // LOOKUPS_PER_POOL])
            span.count(lookups=result.num_lookups, hot_hits=result.hot_hits)
        if engine == "vectorized":
            self.cache_backend = hierarchy.backend
        levels = {
            "l1": hierarchy.l1.stats,
            "l2": hierarchy.l2.stats,
            "l3": hierarchy.l3.stats,
        }
        self._check(rows, lines, stats, levels, result)
        cache = {
            "l1_hits": stats.l1_hits,
            "l2_hits": stats.l2_hits,
            "l3_hits": stats.l3_hits,
            "dram_accesses": stats.dram_accesses,
            "l2_back_invalidations": stats.l2_back_invalidations,
            "prefetches_issued": stats.prefetches_issued,
            "prefetch_hits": stats.prefetch_hits,
            "lines": int(lines.size),
        }
        return cache, result.digest()

    def _check(self, rows, lines, stats, levels, result) -> None:
        require(
            stats.total_line_accesses == lines.size,
            "cache: level hits + DRAM fills != lines replayed",
        )
        l1, l2, l3 = levels["l1"], levels["l2"], levels["l3"]
        require(l1.hits == stats.l1_hits, "cache: L1 hits disagree")
        require(l1.accesses == lines.size, "cache: L1 accesses != lines")
        require(l2.hits == stats.l2_hits, "cache: L2 hits disagree")
        require(l2.accesses == l1.misses, "cache: L2 accesses != L1 misses")
        require(l3.hits == stats.l3_hits, "cache: L3 hits disagree")
        require(l3.accesses == l2.misses, "cache: L3 accesses != L2 misses")
        require(stats.dram_accesses == l3.misses, "cache: DRAM != L3 misses")
        require(stats.prefetches_issued == 0, "cache: prefetches with degree 0")
        require(result.num_lookups == rows.size, "nmp: num_lookups != len(rows)")
        require(
            result.num_pools == rows.size // LOOKUPS_PER_POOL,
            "nmp: pool count != len(lengths)",
        )
        require(result.hot_hits + result.hot_misses == rows.size, "nmp: hit split")
        require(
            bool((result.pool_latencies_ns > 0).all()), "nmp: empty pool latency"
        )

    def _ops(self) -> list:
        def op(rows: np.ndarray):
            with self.rec.span("bench.sls.op"):
                cache, nmp = self._replay(rows, "vectorized")
            return float(rows.size), {"cache": cache, "nmp": nmp}

        return [lambda rows=rows: op(rows) for _, rows in self.traces]

    def _crosschecks(self) -> list:
        slice_lookups = 25 * LOOKUPS_PER_POOL

        def check(rows: np.ndarray) -> None:
            rows = rows[:slice_lookups]
            fast = self._replay(rows, "vectorized")
            spec = self._replay(rows, "reference")
            require(fast == spec, "reference and vectorized engines diverged")

        return [lambda rows=rows: check(rows) for _, rows in self.traces]

    def backends(self) -> dict[str, str]:
        return {"hw.cache": self.cache_backend, "memory.nmp": self.nmp.backend}

    def expected_backends(self) -> dict[str, str]:
        fast = "python" if native_disabled() else "native"
        return {"hw.cache": fast, "memory.nmp": fast}

    def layer_counts(self) -> dict[str, float]:
        rounds = [entry for entry in self.first_round or () if entry]
        if not rounds:
            return {}
        l3 = sum(e["cache"]["l3_hits"] for e in rounds)
        dram = sum(e["cache"]["dram_accesses"] for e in rounds)
        lookups = sum(e["nmp"]["num_lookups"] for e in rounds)
        hot_hits = sum(e["nmp"]["hot_hits"] for e in rounds)
        busy = np.array(
            [e["nmp"]["per_rank_busy"] for e in rounds], dtype=np.float64
        ).sum(axis=0)
        instructions = sum(
            instruction_estimate(self.sls, e["nmp"]["num_pools"]) for e in rounds
        )
        return {
            "hw.cache.llc_miss_ratio": dram / (l3 + dram) if l3 + dram else 0.0,
            "hw.cache.llc_mpki": 1000.0 * dram / instructions,
            "memory.nmp.hot_hit_ratio": hot_hits / lookups,
            "memory.nmp.rank_imbalance": float(busy.max() / busy.mean()),
        }


# --------------------------------------------------------------- fleet-storm


FLEET_REPLICAS = 64
FLEET_BATCH = 8
#: Offered requests per router run, and runs (arrival traces) per round.
FLEET_REQUESTS_PER_RUN = 1_250
FLEET_TRACES = 6
FLEET_UTILIZATION = 0.6


def _fleet_policies(base_s: float, deadline_s: float):
    """Figure 11x's retry+hedge rung and Figure 11y's admission+breaker."""
    hedge = ResiliencePolicy(
        timeout_s=30.0 * base_s,
        max_retries=2,
        backoff_base_s=base_s,
        hedge_delay_s=6.0 * base_s,
        health_check_interval_s=50.0 * base_s,
    )
    overload = OverloadConfig(
        admission=AdmissionPolicy(
            queue_capacity=16,
            shed_policy="deadline_aware",
            deadline_s=deadline_s,
            codel_target_s=8.0 * base_s,
            codel_interval_s=40.0 * base_s,
        ),
        breaker=BreakerPolicy(
            failure_threshold=5,
            window_s=60.0 * base_s,
            open_duration_s=100.0 * base_s,
            half_open_probes=2,
        ),
    )
    return hedge, overload


class FleetStorm(Workload):
    """A 64-replica jsq2 fleet under a diurnal flash crowd and a domain storm."""

    name = "fleet-storm"
    unit = "requests"

    def __init__(self, seed: int, rec: Recorder, scale: float = 1.0) -> None:
        super().__init__(rec)
        seeds = _seeds(seed, 2, 3 * FLEET_TRACES)
        with rec.span("hw.timing.build") as span:
            base_s = (
                TimingModel(BROADWELL)
                .model_latency(RMC1_SMALL, FLEET_BATCH)
                .total_seconds
            )
            self.sla = SLA(deadline_s=25.0 * base_s, percentile=0.99)
            policy, overload = _fleet_policies(base_s, self.sla.deadline_s)
            self.routers = [
                ResilientRouter(
                    BROADWELL,
                    RMC1_SMALL,
                    FLEET_BATCH,
                    FLEET_REPLICAS,
                    policy=policy,
                    overload=overload,
                    routing="jsq2",
                    seed=seeds[2 * FLEET_TRACES + j],
                    engine="vectorized",
                )
                for j in range(FLEET_TRACES)
            ]
            span.count(objects=len(self.routers))
        capacity_qps = self.routers[0].max_stable_qps()
        mean_qps = FLEET_UTILIZATION * capacity_qps
        self.duration_s = max(1, int(FLEET_REQUESTS_PER_RUN * scale)) / mean_qps
        self.arrivals: list[list[float]] = []
        with rec.span("serving.loadgen.gen") as span:
            for j in range(FLEET_TRACES):
                # One flash crowd (2.5x the diurnal rate, ~1.5x capacity)
                # at a different phase of each trace.
                crowd = LoadSpike(
                    start_s=(0.15 + 0.12 * j) * self.duration_s,
                    duration_s=0.15 * self.duration_s,
                    multiplier=2.5,
                )
                queries = DiurnalLoadGenerator(
                    mean_qps=mean_qps,
                    amplitude=0.25,
                    period_s=self.duration_s,
                    spikes=(crowd,),
                    seed=seeds[j],
                ).generate(self.duration_s)
                self.arrivals.append([q.arrival_s for q in queries])
            arrivals = sum(len(a) for a in self.arrivals)
            span.count(arrivals=arrivals)
        self.setup_counts["arrivals"] = float(arrivals)
        self.topology = FleetTopology(
            num_replicas=FLEET_REPLICAS,
            replicas_per_host=2,
            hosts_per_rack=4,
            racks_per_zone=4,
        )
        with rec.span("serving.domains.storm") as span:
            self.storms = [
                expand_to_schedule(
                    domain_storm(
                        self.topology, self.duration_s, seed=seeds[FLEET_TRACES + j]
                    ),
                    self.topology,
                )
                for j in range(FLEET_TRACES)
            ]
            events = sum(len(s.crashes) + len(s.stragglers) for s in self.storms)
            span.count(events=events)
        self.setup_counts["fault_events"] = float(events)

    def inputs_digest(self) -> str:
        storms = json.dumps(
            [
                [
                    [(c.replica_id, c.at_s, c.downtime_s) for c in s.crashes],
                    [
                        (g.replica_id, g.start_s, g.duration_s, g.slowdown)
                        for g in s.stragglers
                    ],
                ]
                for s in self.storms
            ]
        ).encode()
        return _sha(
            np.frombuffer(storms, dtype=np.uint8),
            *(np.asarray(a, dtype=np.float64) for a in self.arrivals),
        )

    def _run(self, router: ResilientRouter, arrivals: list[float], storm, horizon_s):
        rec = self.rec
        with rec.span("serving.router.run") as span:
            result = router.run(
                offered_qps=router.max_stable_qps(),
                duration_s=horizon_s,
                faults=storm,
                sla=self.sla,
                arrival_times_s=arrivals,
            )
            ovl = result.overload
            attempts = result.offered + result.retries + result.hedges
            span.count(
                offered=result.offered,
                attempts=attempts,
                completed=result.completed,
                shed=ovl.shed if ovl is not None else 0,
                admission_offered=ovl.offered if ovl is not None else 0,
            )
        with rec.span("analysis.latency.summary") as span:
            summary = result.summary()
            span.count(samples=summary.count)
        self._check(result, arrivals, summary)
        ovl = result.overload
        return {
            "offered": result.offered,
            "completed": result.completed,
            "failed": result.failed,
            "retries": result.retries,
            "hedges": result.hedges,
            "wasted_attempts": result.wasted_attempts,
            "fail_fasts": result.fail_fasts,
            "ejections": result.ejections,
            "admission_offered": ovl.offered,
            "admitted": ovl.admitted,
            "shed_by_reason": dict(sorted(ovl.shed_by_reason.items())),
            "breaker_opens": ovl.breaker_opens,
            "breaker_rejections": ovl.breaker_rejections,
            "latencies_sha256": _sha(np.asarray(result.latencies_s)),
        }

    def _check(self, result, arrivals: list[float], summary) -> None:
        require(result.offered == len(arrivals), "router: offered != arrivals")
        require(result.unresolved >= 0, "router: negative in-flight count")
        check_conservation(
            result.offered,
            result.completed,
            failed=result.failed,
        )
        require(
            result.offered
            == result.completed + result.failed + result.unresolved,
            "router: offered != completed + failed + in flight",
        )
        latencies = np.asarray(result.latencies_s)
        require(bool(np.isfinite(latencies).all()), "router: non-finite latency")
        require(bool((latencies >= 0).all()), "router: negative latency")
        require(summary.count == result.completed, "router: summary count")
        require(summary.p50 <= summary.p99 <= summary.p999, "router: percentiles")
        ovl = result.overload
        require(ovl is not None, "router: overload stats missing")
        door_shed = ovl.shed_by_reason.get("queue_full", 0) + ovl.shed_by_reason.get(
            "deadline_hopeless", 0
        )
        post_admit_shed = ovl.shed_by_reason.get(
            "oldest_dropped", 0
        ) + ovl.shed_by_reason.get("codel_sojourn", 0)
        require(ovl.offered >= result.offered, "overload: fewer attempts than requests")
        # Attempts that found no candidate replica are counted in
        # ``ovl.offered`` only, so the door-time ledger is an upper bound.
        require(
            ovl.admitted + door_shed + ovl.breaker_rejections + result.fail_fasts
            <= ovl.offered,
            "overload: admitted + shed + rejected + fail-fast > attempts offered",
        )
        require(post_admit_shed <= ovl.admitted, "overload: shed more than admitted")

    def _ops(self) -> list:
        def op(j: int):
            with self.rec.span("bench.fleet.op"):
                entry = self._run(
                    self.routers[j], self.arrivals[j], self.storms[j], self.duration_s
                )
            return float(entry["offered"]), entry

        return [lambda j=j: op(j) for j in range(FLEET_TRACES)]

    def _crosschecks(self) -> list:
        def check(j: int) -> None:
            horizon_s = 0.2 * self.duration_s
            arrivals = [t for t in self.arrivals[j] if t < horizon_s]
            router = self.routers[j]
            spec = ResilientRouter(
                router.server,
                router.config,
                router.batch_size,
                router.num_machines,
                policy=router.policy,
                overload=router.overload,
                routing=router.routing,
                seed=router.seed,
                engine="reference",
            )
            fast = self._run(router, arrivals, self.storms[j], horizon_s)
            slow = self._run(spec, arrivals, self.storms[j], horizon_s)
            require(fast == slow, "reference and vectorized routers diverged")

        return [lambda j=j: check(j) for j in range(FLEET_TRACES)]

    def backends(self) -> dict[str, str]:
        return {"serving.router": self.routers[0].engine}

    def expected_backends(self) -> dict[str, str]:
        return {"serving.router": "vectorized"}

    def layer_counts(self) -> dict[str, float]:
        rounds = [entry for entry in self.first_round or () if entry]
        offered = sum(e["offered"] for e in rounds)
        completed = sum(e["completed"] for e in rounds)
        attempts = sum(e["offered"] + e["retries"] + e["hedges"] for e in rounds)
        shed = sum(sum(e["shed_by_reason"].values()) for e in rounds)
        admission = sum(e["admission_offered"] for e in rounds)
        if not offered:
            return {}
        return {
            "serving.router.attempts_per_request": attempts / offered,
            "serving.router.useful_attempt_ratio": completed / attempts,
            "serving.router.shed_frac": shed / admission if admission else 0.0,
            "serving.router.availability": completed / offered,
        }


# ------------------------------------------------------------ colo sweeps


COLO_BATCH = 16
COLO_REQUESTS_PER_POINT = 2_500
#: (co-located instances, offered load as a fraction of the uncontended
#: per-instance service rate): a light point and one past the
#: co-location knee of Figs 10/11.
COLO_LOADS = ((4, 0.4), (12, 0.8))


class ColoSweep(Workload):
    """Figs 10/11-shaped ServingSimulator sweep; optionally observed.

    Unobserved, the vectorized engine runs on the C DES kernel. With an
    ``OpProfiler`` and a ``MetricsRegistry`` attached it runs on the
    batched python backend.
    """

    unit = "requests"

    def __init__(
        self, seed: int, rec: Recorder, observed: bool, scale: float = 1.0
    ) -> None:
        super().__init__(rec)
        self.observed = observed
        #: Profiler requests and shed counter after each observed
        #: simulator's last run, keyed by ``id(sim)``.
        self._observed: dict[int, tuple[int, float]] = {}
        self.name = "colo-observed" if observed else "colo-native"
        self.points: list[dict] = []
        grid = [
            (server, config, instances, load)
            for server in (BROADWELL, SKYLAKE)
            for config in (RMC1_SMALL, RMC2_SMALL, RMC3_SMALL)
            for instances, load in COLO_LOADS
        ]
        seeds = _seeds(seed, 3, 2 * len(grid))
        requests = max(1, int(COLO_REQUESTS_PER_POINT * scale))
        with rec.span("hw.timing.build") as span:
            des_native_available()  # loads (first time: compiles) the kernel
            for i, (server, config, instances, load) in enumerate(grid):
                base_s = (
                    TimingModel(server).model_latency(config, COLO_BATCH).total_seconds
                )
                qps = load / base_s
                self.points.append(
                    {
                        "server": server,
                        "config": config,
                        "instances": instances,
                        "qps": qps,
                        "duration_s": requests / (instances * qps),
                        "seed": seeds[i],
                        "admission": i % 3 == 2,
                    }
                )
            span.count(points=len(self.points))
        with rec.span("serving.faults.storm") as span:
            events = 0
            for i, point in enumerate(self.points):
                point["faults"] = None
                if i % 4 == 1:
                    storm = fault_storm(
                        point["instances"],
                        point["duration_s"],
                        seed=seeds[len(grid) + i],
                    )
                    point["faults"] = storm
                    events += (
                        len(storm.crashes)
                        + len(storm.stragglers)
                        + len(storm.bandwidth_faults)
                    )
            span.count(events=events)
        self.setup_counts["fault_events"] = float(events)
        with rec.span("hw.timing.build") as span:
            self.sims = [self._simulator(p, "vectorized") for p in self.points]
            span.count(objects=len(self.sims))

    def _simulator(self, point: dict, engine: str) -> ServingSimulator:
        overload = None
        if point["admission"]:
            overload = OverloadConfig(
                admission=AdmissionPolicy(queue_capacity=8, shed_policy="reject_newest")
            )
        observers = {}
        if self.observed:
            observers = {"profiler": OpProfiler(), "metrics": MetricsRegistry()}
        return ServingSimulator(
            point["server"],
            point["config"],
            batch_size=COLO_BATCH,
            num_instances=point["instances"],
            per_instance_qps=point["qps"],
            seed=point["seed"],
            faults=point["faults"],
            overload=overload,
            engine=engine,
            backend="auto",
            **observers,
        )

    def inputs_digest(self) -> str:
        rows = []
        for point in self.points:
            storm = point["faults"]
            rows.append(
                [
                    point["server"].name,
                    point["config"].name,
                    point["instances"],
                    point["qps"],
                    point["duration_s"],
                    point["seed"],
                    point["admission"],
                    None
                    if storm is None
                    else [
                        [(c.replica_id, c.at_s, c.downtime_s) for c in storm.crashes],
                        [
                            (g.replica_id, g.start_s, g.duration_s, g.slowdown)
                            for g in storm.stragglers
                        ],
                        [
                            (b.start_s, b.duration_s, b.bandwidth_fraction, b.replica_id)
                            for b in storm.bandwidth_faults
                        ],
                    ],
                ]
            )
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()

    def _run(self, sim: ServingSimulator, duration_s: float) -> dict:
        rec = self.rec
        profiler = sim.profiler
        metrics = sim.metrics
        requests_before, shed_before = self._observed.get(id(sim), (0, 0.0))
        with rec.span("serving.sim.run") as span:
            result = sim.run(duration_s)
            span.count(
                offered=result.offered,
                shed=result.shed,
                native=1 if sim.last_backend == "native" else 0,
            )
        with rec.span("analysis.latency.summary") as span:
            summary = result.summary()
            span.count(samples=summary.count)
        entry = {
            "offered": result.offered,
            "completed": len(result.records),
            "shed": result.shed,
            "killed": result.killed,
            "max_queue_depth": result.max_queue_depth,
            "backend": sim.last_backend,
            "records_sha256": _sha(
                result.latencies_s(),
                result.service_times_s(),
                result.active_job_counts(),
            ),
        }
        if profiler is not None and metrics is not None:
            with rec.span("obs.profile.read"):
                fractions = profiler.fraction_by_op_type()
                snapshot = metrics.snapshot()
            shed_after = snapshot.counters.get("serving.overload.shed", 0.0)
            self._observed[id(sim)] = (profiler.requests, shed_after)
            require(
                profiler.requests - requests_before == len(result.records),
                "profiler: attributed requests != completions",
            )
            require(
                abs(sum(fractions.values()) - 1.0) < 1e-9,
                "profiler: op shares do not sum to 1",
            )
            require(shed_after - shed_before == result.shed, "metrics: shed counter")
            entry["cycles_by_op"] = dict(sorted(profiler.cycles_by_op_type().items()))
        self._check(result, summary)
        return entry

    def _check(self, result, summary) -> None:
        in_flight = check_conservation(
            result.offered, len(result.records), shed=result.shed, killed=result.killed
        )
        require(in_flight >= 0, "sim: negative in-flight count")
        require(summary.count == len(result.records), "sim: summary count")
        require(summary.p50 <= summary.p99 <= summary.p999, "sim: percentiles")
        require(summary.p5 >= 0.0, "sim: negative latency")

    def _ops(self) -> list:
        def op(i: int):
            with self.rec.span("bench.colo.op"):
                entry = self._run(self.sims[i], self.points[i]["duration_s"])
            return float(entry["offered"]), entry

        return [lambda i=i: op(i) for i in range(len(self.sims))]

    def _crosschecks(self) -> list:
        def check(point: dict) -> None:
            horizon_s = 0.1 * point["duration_s"]
            fast = self._run(self._simulator(point, "vectorized"), horizon_s)
            spec = self._run(self._simulator(point, "reference"), horizon_s)
            fast.pop("backend")
            spec.pop("backend")
            require(fast == spec, "reference and vectorized simulators diverged")

        return [lambda p=p: check(p) for p in self.points]

    def backends(self) -> dict[str, str]:
        used = sorted({str(sim.last_backend) for sim in self.sims})
        return {"serving.sim": ",".join(used)}

    def expected_backends(self) -> dict[str, str]:
        native = not self.observed and not native_disabled()
        return {"serving.sim": "native" if native else "python"}

    def layer_counts(self) -> dict[str, float]:
        rounds = [entry for entry in self.first_round or () if entry]
        offered = sum(e["offered"] for e in rounds)
        shed = sum(e["shed"] for e in rounds)
        native = sum(1 for e in rounds if e["backend"] == "native")
        if not offered:
            return {}
        return {
            "serving.sim.native_frac": native / len(rounds),
            "serving.sim.shed_frac": shed / offered,
        }


def native_status() -> dict[str, bool]:
    """Whether each self-compiled kernel loads in this process."""
    return {
        "hw.cache": cache_native_available(),
        "memory.nmp": nmp_native_available(),
        "serving.des": des_native_available(),
    }


WORKLOADS = {
    "sls-locality": lambda seed, rec, scale: SlsLocality(seed, rec, scale),
    "fleet-storm": lambda seed, rec, scale: FleetStorm(seed, rec, scale),
    "colo-native": lambda seed, rec, scale: ColoSweep(seed, rec, False, scale),
    "colo-observed": lambda seed, rec, scale: ColoSweep(seed, rec, True, scale),
}
