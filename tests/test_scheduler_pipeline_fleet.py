"""Tests for the scheduler and the fleet."""

import pytest

from repro.config import RMC2_SMALL, RMC3_SMALL
from repro.hw import ALL_SERVERS, BROADWELL, SKYLAKE
from repro.serving import (
    Fleet,
    FleetService,
    SLA,
    best_placement,
    colocation_sweep,
    production_fleet,
    route_to_best_server,
)


class TestScheduler:
    def test_sweep_monotone_throughput_until_saturation(self):
        points = colocation_sweep(BROADWELL, RMC2_SMALL, 32, SLA(1.0), max_jobs=8)
        assert [p.num_jobs for p in points] == list(range(1, 9))
        assert points[-1].items_per_s > points[0].items_per_s

    def test_best_placement_feasible(self):
        decision = best_placement(SKYLAKE, RMC2_SMALL, 32, SLA(0.020), max_jobs=24)
        assert decision is not None
        assert decision.latency_s <= 0.020

    def test_best_placement_none_when_sla_impossible(self):
        assert best_placement(BROADWELL, RMC2_SMALL, 32, SLA(1e-6)) is None

    def test_route_prefers_skylake_for_high_throughput(self):
        """Heterogeneity-aware routing: under a throughput-oriented SLA the
        memory-intensive model lands on Skylake (Figure 10's conclusion)."""
        decision = route_to_best_server(list(ALL_SERVERS), RMC2_SMALL, 32, SLA(0.050))
        assert decision.server_name == "Skylake"

    def test_route_prefers_broadwell_for_strict_latency_low_batch(self):
        """With a tight SLA at small batch, high-frequency Broadwell wins."""
        decision = route_to_best_server(list(ALL_SERVERS), RMC3_SMALL, 4, SLA(0.0011))
        assert decision.server_name == "Broadwell"


class TestFleet:
    def test_production_fleet_matches_figure1(self):
        fleet = production_fleet()
        assert fleet.rmc_core_share() == pytest.approx(0.65, abs=0.02)
        assert fleet.recommendation_share() == pytest.approx(0.79, abs=0.02)

    def test_figure4_sls_share(self):
        """SLS ~15% of all AI cycles, >=4x Conv and >=15x Recurrent."""
        ops = production_fleet().cycles_by_operator()
        assert 0.10 < ops["SLS"] < 0.30
        assert ops["SLS"] > 4 * ops["Conv"]
        assert ops["SLS"] > 15 * ops["Recurrent"]

    def test_fc_is_largest_model_operator(self):
        ops = production_fleet().cycles_by_operator()
        model_ops = {k: v for k, v in ops.items() if k != "Other"}
        assert max(model_ops, key=model_ops.get) == "FC"

    def test_sls_only_in_recommendation(self):
        fleet = production_fleet()
        non_rec = fleet.cycles_by_operator(recommendation_only=False)
        assert non_rec.get("SLS", 0.0) == 0.0

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Fleet([FleetService("a", "RMC1", 0.5, {"FC": 1.0})])

    def test_split_views_sum_to_total(self):
        fleet = production_fleet()
        rec = sum(fleet.cycles_by_operator(True).values())
        non = sum(fleet.cycles_by_operator(False).values())
        assert rec + non == pytest.approx(1.0, abs=0.01)
