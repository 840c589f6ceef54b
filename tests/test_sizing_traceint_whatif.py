"""Tests for trace-driven timing and the what-if study."""

import numpy as np
import pytest

from repro.config import RMC2_SMALL
from repro.data import TemporalReuseGenerator
from repro.experiments import whatif_memory
from repro.hw import (
    BROADWELL,
    TimingModel,
    measure_trace_hit_ratio,
    trace_driven_latency,
)


@pytest.fixture(scope="module")
def local_trace():
    gen = TemporalReuseGenerator(1_000_000, 1, reuse_probability=0.7)
    return gen.ids(12_000, np.random.default_rng(4))


@pytest.fixture(scope="module")
def random_trace_ids():
    return np.random.default_rng(5).integers(0, 1_000_000, size=12_000)


class TestTraceIntegration:
    def test_local_trace_measures_high_hit_ratio(self, local_trace):
        hit, _ = measure_trace_hit_ratio(BROADWELL, 1_000_000, 32, local_trace)
        assert hit > 0.5

    def test_random_trace_measures_low_hit_ratio(self, random_trace_ids):
        hit, _ = measure_trace_hit_ratio(BROADWELL, 1_000_000, 32, random_trace_ids)
        assert hit < 0.3

    def test_latency_follows_measured_locality(self, local_trace, random_trace_ids):
        local = trace_driven_latency(BROADWELL, RMC2_SMALL, local_trace)
        random = trace_driven_latency(BROADWELL, RMC2_SMALL, random_trace_ids)
        assert local.measured_hit_ratio > random.measured_hit_ratio
        assert local.latency.total_seconds < random.latency.total_seconds

    def test_consistent_with_analytic_model(self, random_trace_ids):
        """A random trace's measured hit ratio should give a latency close
        to the analytic default for multi-GB tables (near-zero hits)."""
        result = trace_driven_latency(BROADWELL, RMC2_SMALL, random_trace_ids)
        analytic = TimingModel(BROADWELL).model_latency(RMC2_SMALL, 16)
        assert result.latency.total_seconds == pytest.approx(
            analytic.total_seconds, rel=0.35
        )

    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError):
            measure_trace_hit_ratio(BROADWELL, 1000, 32, np.array([]))


class TestWhatIfMemory:
    @pytest.fixture(scope="class")
    def result(self):
        return whatif_memory.run()

    def test_latency_lever_pays_alone(self, result):
        rows = result.by_variant()
        assert rows["2x lower latency"].speedup > 1.5
        assert rows["4x bandwidth (HBM-class)"].speedup < 1.1

    def test_bandwidth_lever_pays_colocated(self, result):
        rows = result.by_variant()
        assert rows["4x bandwidth (HBM-class)"].colocated_speedup > 1.25
        assert (
            rows["4x bandwidth (HBM-class)"].colocated_speedup
            > rows["2x lower latency"].colocated_speedup
        )

    def test_combined_lever_dominates(self, result):
        rows = result.by_variant()
        both = rows["both"]
        assert both.speedup >= rows["2x lower latency"].speedup - 1e-9
        assert both.colocated_speedup >= max(
            rows["4x bandwidth (HBM-class)"].colocated_speedup,
            rows["2x lower latency"].colocated_speedup,
        ) - 1e-9

    def test_baseline_is_unity(self, result):
        baseline = result.by_variant()["baseline"]
        assert baseline.speedup == pytest.approx(1.0)
        assert baseline.colocated_speedup == pytest.approx(1.0)

    def test_render(self, result):
        assert "What-if" in whatif_memory.render(result)
