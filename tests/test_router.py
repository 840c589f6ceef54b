"""Routing-policy tail latencies on the fault-free fleet simulator."""

import pytest

from repro.config import RMC1_SMALL
from repro.hw import BROADWELL
from repro.serving import POLICIES, ResilientRouter


class TestPolicyComparison:
    @pytest.fixture(scope="class")
    def results(self):
        """Every policy at 85% of fleet capacity on 10 Broadwell replicas.

        No faults and no resilience policy, so this is plain routing; the
        vectorized engine is byte-identical to the reference loop.
        """
        out = {}
        for policy in POLICIES:
            router = ResilientRouter(
                BROADWELL, RMC1_SMALL, batch_size=16, num_machines=10,
                routing=policy, seed=5, engine="vectorized",
            )
            out[policy] = router.run(0.85 * router.max_stable_qps(), 2.0)
        return out

    def test_jsq2_beats_random_tail(self, results):
        """The power of two choices: sampled-shortest-queue cuts the tail."""
        assert results["jsq2"].summary().p99 < results["random"].summary().p99

    def test_round_robin_beats_random_tail(self, results):
        """Deterministic spreading avoids random's collision bursts."""
        assert (
            results["round_robin"].summary().p99
            <= results["random"].summary().p99 * 1.05
        )
