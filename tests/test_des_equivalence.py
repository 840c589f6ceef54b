"""Two-engine DES equivalence: vectorized must be bit-identical to reference.

The reference per-event loops in ``ServingSimulator._run_reference`` and
``ResilientRouter._run_reference`` are the executable specification; the
vectorized engine (and its self-compiled C backend) re-derives the same
event order from batched arrays. This suite drives both engines through
random policy x fault x load x tier compositions and asserts *byte*
equality of every observable — record arrays, counters, overload books,
downtime — plus RNG stream-position parity (a second run from the same
objects must also match) and request conservation.

``DES_EXAMPLES`` scales the hypothesis sweep (CI uses the default).
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import RMC1_SMALL
from repro.hw import BROADWELL
from repro.serving import (
    SLA,
    AdmissionPolicy,
    BandwidthFault,
    BreakerPolicy,
    BrownoutPolicy,
    FaultSchedule,
    FleetTopology,
    OverloadConfig,
    ReplicaCrash,
    ResiliencePolicy,
    ResilientRouter,
    ServingSimulator,
    Straggler,
    check_conservation,
    default_brownout_tiers,
    domain_storm,
    fault_storm,
)
from repro.serving._des_native import native_available

NUM_MACHINES = 4
DURATION_S = 0.04
SERVICE_S = ResilientRouter(
    BROADWELL, RMC1_SMALL, 8, NUM_MACHINES, seed=0
)._base_service_s

EQUIV = settings(
    max_examples=int(os.environ.get("DES_EXAMPLES", "15")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ------------------------------------------------------------- strategies


@st.composite
def admission_policies(draw) -> AdmissionPolicy:
    shed_policy = draw(
        st.sampled_from(["reject_newest", "reject_oldest", "deadline_aware"])
    )
    deadline = st.floats(5.0 * SERVICE_S, 50.0 * SERVICE_S)
    if shed_policy != "deadline_aware":
        deadline = st.one_of(st.none(), deadline)
    return AdmissionPolicy(
        queue_capacity=draw(st.integers(min_value=1, max_value=16)),
        shed_policy=shed_policy,
        deadline_s=draw(deadline),
        codel_target_s=draw(
            st.one_of(st.none(), st.floats(2.0 * SERVICE_S, 20.0 * SERVICE_S))
        ),
    )


def overload_configs() -> st.SearchStrategy[OverloadConfig | None]:
    breaker = st.builds(
        BreakerPolicy,
        failure_threshold=st.integers(min_value=1, max_value=6),
        window_s=st.floats(10.0 * SERVICE_S, 100.0 * SERVICE_S),
        open_duration_s=st.floats(10.0 * SERVICE_S, 200.0 * SERVICE_S),
        half_open_probes=st.integers(min_value=1, max_value=3),
    )
    brownout = st.builds(
        BrownoutPolicy,
        tiers=st.just(default_brownout_tiers(RMC1_SMALL)),
        step_up_depth=st.floats(2.0, 10.0),
        step_down_depth=st.floats(0.5, 1.5),
        dwell_s=st.floats(0.0, 30.0 * SERVICE_S),
    )
    config = st.builds(
        OverloadConfig,
        admission=st.one_of(st.none(), admission_policies()),
        breaker=st.one_of(st.none(), breaker),
        brownout=st.one_of(st.none(), brownout),
    )
    return st.one_of(st.none(), config)


def fault_schedules(
    num_replicas: int = NUM_MACHINES,
) -> st.SearchStrategy[FaultSchedule | None]:
    crash = st.builds(
        ReplicaCrash,
        replica_id=st.integers(0, num_replicas - 1),
        at_s=st.floats(0.0, 0.8 * DURATION_S),
        downtime_s=st.floats(0.05 * DURATION_S, 0.5 * DURATION_S),
    )
    straggler = st.builds(
        Straggler,
        replica_id=st.integers(0, num_replicas - 1),
        start_s=st.floats(0.0, 0.8 * DURATION_S),
        duration_s=st.floats(0.05 * DURATION_S, 0.5 * DURATION_S),
        slowdown=st.floats(2.0, 20.0),
    )
    bandwidth = st.builds(
        BandwidthFault,
        start_s=st.floats(0.0, 0.8 * DURATION_S),
        duration_s=st.floats(0.05 * DURATION_S, 0.5 * DURATION_S),
        bandwidth_fraction=st.floats(0.2, 1.0),
        replica_id=st.one_of(st.none(), st.integers(0, num_replicas - 1)),
    )
    schedule = st.builds(
        FaultSchedule,
        crashes=st.lists(crash, max_size=2),
        stragglers=st.lists(straggler, max_size=2),
        bandwidth_faults=st.lists(bandwidth, max_size=2),
    )
    return st.one_of(st.none(), schedule)


# -------------------------------------------------------------- run keys


def sim_key(result) -> tuple:
    """Every observable of a simulator run, bytes-exact."""
    return (
        result.offered,
        result.killed,
        result.shed,
        result.max_queue_depth,
        result.downtime_s,
        len(result.records),
        np.asarray(result.latencies_s()).tobytes(),
        np.asarray(result.service_times_s()).tobytes(),
        np.asarray(result.active_job_counts()).tobytes(),
    )


def router_key(result) -> tuple:
    """Every observable of a router run, bytes-exact."""
    ovl = result.overload
    return (
        result.offered,
        result.failed,
        result.retries,
        result.hedges,
        result.wasted_attempts,
        result.fail_fasts,
        result.ejections,
        result.degraded_completions,
        result.time_in_degraded_s,
        result.quality,
        result.brownout_quality,
        np.asarray(result.latencies_s).tobytes(),
        None
        if ovl is None
        else (
            ovl.offered,
            ovl.admitted,
            tuple(sorted(ovl.shed_by_reason.items())),
            ovl.breaker_rejections,
            ovl.breaker_opens,
            ovl.brownout_switches,
            ovl.max_brownout_tier,
            tuple(ovl.time_in_tier_s),
            tuple(ovl.completions_by_tier),
            ovl.max_queue_depth,
        ),
    )


def sim_overloads() -> st.SearchStrategy[OverloadConfig | None]:
    # The simulator composes admission control only (breakers/brownout
    # live in the router).
    return st.one_of(
        st.none(), st.builds(OverloadConfig, admission=admission_policies())
    )


def run_sim(engine, backend, load_factor, overload, faults, seed):
    sim = ServingSimulator(
        BROADWELL,
        RMC1_SMALL,
        batch_size=8,
        num_instances=NUM_MACHINES,
        per_instance_qps=(
            None if load_factor is None else load_factor / SERVICE_S
        ),
        seed=seed,
        overload=overload,
        faults=faults,
        engine=engine,
        backend=backend,
    )
    first = sim.run(DURATION_S)
    # Second run from the same simulator: equal keys here prove the RNG
    # stream position after the first run matched bitwise.
    second = sim.run(DURATION_S / 2)
    return sim, sim_key(first) + sim_key(second), first


def run_router(engine, routing, load_factor, policy, overload, faults, seed):
    router = ResilientRouter(
        BROADWELL,
        RMC1_SMALL,
        8,
        NUM_MACHINES,
        routing=routing,
        policy=policy,
        overload=overload,
        seed=seed,
        engine=engine,
    )
    sla = SLA(deadline_s=25.0 * SERVICE_S)
    first = router.run(
        offered_qps=load_factor * NUM_MACHINES / SERVICE_S,
        duration_s=DURATION_S,
        faults=faults,
        sla=sla,
    )
    second = router.run(
        offered_qps=load_factor * NUM_MACHINES / SERVICE_S,
        duration_s=DURATION_S / 2,
        faults=faults,
        sla=sla,
    )
    return router_key(first) + router_key(second), first


class TestSimulatorEquivalence:
    @EQUIV
    @given(
        load_factor=st.one_of(st.none(), st.floats(0.3, 5.0)),
        overload=sim_overloads(),
        faults=fault_schedules(),
        seed=st.integers(0, 2**16),
    )
    def test_engines_bit_identical(self, load_factor, overload, faults, seed):
        _, ref_key, ref = run_sim(
            "reference", "auto", load_factor, overload, faults, seed
        )
        sim, vec_key, vec = run_sim(
            "vectorized", "python", load_factor, overload, faults, seed
        )
        assert sim.last_backend == "python"
        assert ref_key == vec_key
        check_conservation(
            vec.offered, len(vec.records), shed=vec.shed, killed=vec.killed
        )
        # Record-for-record equality through the SoA container.
        for i in (0, len(ref.records) // 2, len(ref.records) - 1):
            assert ref.records[i] == vec.records[i]

    @pytest.mark.skipif(not native_available(), reason="no C compiler")
    @EQUIV
    @given(
        load_factor=st.one_of(st.none(), st.floats(0.3, 5.0)),
        overload=sim_overloads(),
        faults=fault_schedules(),
        seed=st.integers(0, 2**16),
    )
    def test_native_backend_bit_identical(
        self, load_factor, overload, faults, seed
    ):
        _, ref_key, _ = run_sim(
            "reference", "auto", load_factor, overload, faults, seed
        )
        sim, nat_key, _ = run_sim(
            "vectorized", "native", load_factor, overload, faults, seed
        )
        assert sim.last_backend == "native"
        assert ref_key == nat_key

    def test_tracing_does_not_perturb_results(self):
        from repro.obs import Tracer

        for engine in ("reference", "vectorized"):
            baseline = None
            for tracer in (None, Tracer()):
                sim = ServingSimulator(
                    BROADWELL,
                    RMC1_SMALL,
                    8,
                    num_instances=3,
                    per_instance_qps=2.0 / SERVICE_S,
                    seed=5,
                    tracer=tracer,
                    engine=engine,
                )
                key = sim_key(sim.run(DURATION_S))
                if baseline is None:
                    baseline = key
                else:
                    assert key == baseline, engine

    def test_native_backend_request_fails_loudly_when_disabled(self, monkeypatch):
        import repro.hw._native as native

        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        monkeypatch.setattr(native, "_LIBRARIES", {})
        sim = ServingSimulator(
            BROADWELL, RMC1_SMALL, 8, 2, seed=1, engine="vectorized",
            backend="native",
        )
        with pytest.raises(RuntimeError, match="native DES backend"):
            sim.run(0.01)


class TestRouterEquivalence:
    @EQUIV
    @given(
        routing=st.sampled_from(["round_robin", "random", "jsq2"]),
        load_factor=st.floats(0.3, 6.0),
        timeout_factor=st.one_of(st.none(), st.floats(10.0, 60.0)),
        hedge=st.booleans(),
        overload=overload_configs(),
        faults=fault_schedules(),
        seed=st.integers(0, 2**16),
    )
    def test_engines_bit_identical(
        self, routing, load_factor, timeout_factor, hedge, overload, faults,
        seed,
    ):
        policy = (
            ResiliencePolicy.none()
            if timeout_factor is None
            else ResiliencePolicy(
                timeout_s=timeout_factor * SERVICE_S,
                max_retries=1,
                backoff_base_s=SERVICE_S,
                hedge_delay_s=(20.0 * SERVICE_S if hedge else None),
            )
        )
        ref_key, ref = run_router(
            "reference", routing, load_factor, policy, overload, faults, seed
        )
        vec_key, vec = run_router(
            "vectorized", routing, load_factor, policy, overload, faults, seed
        )
        assert ref_key == vec_key
        check_conservation(
            vec.offered, vec.completed, failed=vec.failed
        )
        assert vec.unresolved >= 0

    @EQUIV
    @given(
        load_factor=st.floats(0.5, 4.0),
        overload=overload_configs(),
        seed=st.integers(0, 2**16),
        jitter=st.lists(
            st.floats(0.0, 0.9 * DURATION_S), min_size=1, max_size=40
        ),
    )
    def test_explicit_arrival_traces_match(
        self, load_factor, overload, seed, jitter
    ):
        # Out-of-order (and possibly tied) explicit arrival times take the
        # trace-driven path in both engines.
        arrivals = sorted(jitter, reverse=True)
        keys = []
        for engine in ("reference", "vectorized"):
            router = ResilientRouter(
                BROADWELL,
                RMC1_SMALL,
                8,
                NUM_MACHINES,
                overload=overload,
                seed=seed,
                engine=engine,
            )
            result = router.run(
                offered_qps=load_factor * NUM_MACHINES / SERVICE_S,
                duration_s=DURATION_S,
                arrival_times_s=arrivals,
                sla=SLA(deadline_s=25.0 * SERVICE_S),
            )
            keys.append(router_key(result))
        assert keys[0] == keys[1]

    def test_traced_runs_identical_across_engines(self):
        from repro.obs import Tracer, dumps_chrome
        from repro.serving import fault_storm

        dumps = []
        for engine in ("reference", "vectorized"):
            tracer = Tracer()
            router = ResilientRouter(
                BROADWELL,
                RMC1_SMALL,
                8,
                NUM_MACHINES,
                policy=ResiliencePolicy(
                    timeout_s=30.0 * SERVICE_S,
                    max_retries=1,
                    backoff_base_s=SERVICE_S,
                ),
                overload=OverloadConfig(
                    admission=AdmissionPolicy(queue_capacity=4)
                ),
                seed=9,
                tracer=tracer,
                engine=engine,
            )
            router.run(
                offered_qps=3.0 * NUM_MACHINES / SERVICE_S,
                duration_s=DURATION_S,
                faults=fault_storm(NUM_MACHINES, DURATION_S, seed=3),
                sla=SLA(deadline_s=25.0 * SERVICE_S),
            )
            dumps.append(dumps_chrome(tracer))
        assert dumps[0] == dumps[1]


@pytest.mark.parametrize("routing", ["round_robin", "jsq2", "random"])
class TestCorrelatedScheduleEquivalence:
    """Domain schedules lower to plain fault primitives, so the two-engine
    bit-identity proof must keep holding on correlated storms too, under
    every routing policy and at fleet scale."""

    TOPOLOGY = FleetTopology(
        num_replicas=NUM_MACHINES,
        replicas_per_host=1,
        hosts_per_rack=2,
        racks_per_zone=1,
    )

    @EQUIV
    @given(
        storm_seed=st.integers(0, 2**16),
        load_factor=st.floats(0.3, 6.0),
        timeout_factor=st.one_of(st.none(), st.floats(10.0, 60.0)),
        seed=st.integers(0, 2**16),
    )
    def test_expanded_domain_storms_bit_identical(
        self, routing, storm_seed, load_factor, timeout_factor, seed
    ):
        storm = domain_storm(self.TOPOLOGY, DURATION_S, seed=storm_seed)
        faults = storm.expand_to_schedule(self.TOPOLOGY)
        policy = (
            ResiliencePolicy.none()
            if timeout_factor is None
            else ResiliencePolicy(
                timeout_s=timeout_factor * SERVICE_S,
                max_retries=1,
                backoff_base_s=SERVICE_S,
            )
        )
        ref_key, ref = run_router(
            "reference", routing, load_factor, policy, None, faults, seed
        )
        vec_key, vec = run_router(
            "vectorized", routing, load_factor, policy, None, faults, seed
        )
        assert ref_key == vec_key
        check_conservation(vec.offered, vec.completed, failed=vec.failed)

    def test_fleet_scale_storm_bit_identical(self, routing):
        # 257 replicas: candidate counts far above NUM_MACHINES, an odd
        # fleet that fills no rack evenly, and a host/rack storm plus
        # fleet-wide and per-replica bandwidth dips on top.
        num_replicas = 257
        duration_s = 0.0006  # ~3k requests
        topology = FleetTopology(
            num_replicas=num_replicas,
            replicas_per_host=2,
            hosts_per_rack=8,
            racks_per_zone=4,
        )
        expanded = domain_storm(
            topology, duration_s, seed=21, crash_count=4, slowdown_count=3
        ).expand_to_schedule(topology)
        # Replica 100 stacks three overlapping windows, where the order of
        # the float product shows.
        faults = FaultSchedule(
            crashes=expanded.crashes,
            stragglers=expanded.stragglers
            + (Straggler(100, 0.2 * duration_s, 0.6 * duration_s, 1.5),),
            bandwidth_faults=(
                BandwidthFault(0.1 * duration_s, 0.5 * duration_s, 0.4),
                BandwidthFault(
                    0.3 * duration_s, 0.4 * duration_s, 0.5, replica_id=100
                ),
            ),
        )
        policy = ResiliencePolicy(
            timeout_s=30.0 * SERVICE_S,
            max_retries=2,
            backoff_base_s=SERVICE_S,
            hedge_delay_s=6.0 * SERVICE_S,
            health_check_interval_s=50.0 * SERVICE_S,
        )
        overload = OverloadConfig(
            admission=AdmissionPolicy(
                queue_capacity=8,
                shed_policy="deadline_aware",
                deadline_s=15.0 * SERVICE_S,
            ),
            breaker=BreakerPolicy(
                failure_threshold=2,
                window_s=60.0 * SERVICE_S,
                open_duration_s=100.0 * SERVICE_S,
                half_open_probes=2,
            ),
        )
        keys = {}
        for engine in ("reference", "vectorized"):
            router = ResilientRouter(
                BROADWELL,
                RMC1_SMALL,
                8,
                num_replicas,
                routing=routing,
                policy=policy,
                overload=overload,
                seed=13,
                engine=engine,
            )
            result = router.run(
                offered_qps=1.1 * num_replicas / SERVICE_S,
                duration_s=duration_s,
                faults=faults,
                sla=SLA(deadline_s=25.0 * SERVICE_S),
            )
            keys[engine] = router_key(result)
        assert keys["reference"] == keys["vectorized"]
        assert result.offered > 1000
        assert result.retries > 0 and result.hedges > 0
        assert result.overload.breaker_opens > 0
        check_conservation(
            result.offered, result.completed, failed=result.failed
        )

class TestFleetDayEquivalence:
    def test_small_fleet_day_engine_invariant(self):
        from repro.experiments import fleet_day

        results = {
            engine: fleet_day.run(
                peak_replicas=12,
                windows=4,
                window_sim_s=0.01,
                seed=11,
                engine=engine,
            )
            for engine in ("reference", "vectorized")
        }
        ref, vec = results["reference"], results["vectorized"]
        assert ref.windows == vec.windows
        assert ref.peak_replicas == vec.peak_replicas
        assert ref.total_offered == vec.total_offered
        assert vec.total_offered > 0
