"""Tests for SLA metrics and queries."""

import pytest

from repro.serving import (
    Query,
    SLA,
    ThroughputPoint,
    latency_bounded_throughput,
)


class TestSLA:
    def test_met_when_under_deadline(self):
        assert SLA(0.1, percentile=0.99).is_met([0.01] * 100)

    def test_violated_by_tail(self):
        latencies = [0.01] * 90 + [1.0] * 10
        assert not SLA(0.1, percentile=0.99).is_met(latencies)
        assert SLA(0.1, percentile=0.50).is_met(latencies)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SLA(0.0)
        with pytest.raises(ValueError):
            SLA(0.1, percentile=0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SLA(0.1).is_met([])


class TestLatencyBoundedThroughput:
    def test_picks_highest_feasible(self):
        points = [
            ThroughputPoint(1, 0.01, 100, True),
            ThroughputPoint(2, 0.02, 180, True),
            ThroughputPoint(4, 0.5, 300, False),
        ]
        best = latency_bounded_throughput(points)
        assert best.num_jobs == 2

    def test_none_when_infeasible(self):
        points = [ThroughputPoint(1, 0.5, 100, False)]
        assert latency_bounded_throughput(points) is None


class TestQuery:
    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            Query(query_id=0, arrival_s=-1.0, num_items=1)

    def test_rejects_zero_items(self):
        with pytest.raises(ValueError):
            Query(query_id=0, arrival_s=0.0, num_items=0)
