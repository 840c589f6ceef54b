"""Tests for the FC-accelerator Amdahl analysis (Takeaway 2)."""

import pytest

from repro.config import RMC1_SMALL, RMC2_SMALL, RMC3_SMALL
from repro.experiments import figfc_accelerator
from repro.hw import (
    AcceleratorConfig,
    BROADWELL,
    accelerate_fc,
    speedup_sweep,
)


class TestAccelerateFc:
    def test_rmc3_gains_most(self):
        """FC acceleration helps the compute-bound class..."""
        result = accelerate_fc(BROADWELL, RMC3_SMALL, 16)
        assert result.end_to_end_speedup > 3.0

    def test_rmc2_gains_little(self):
        """...but barely moves the embedding-dominated class — the paper's
        'limited benefits on end-to-end performance' argument."""
        result = accelerate_fc(BROADWELL, RMC2_SMALL, 16)
        assert result.end_to_end_speedup < 1.3

    def test_speedup_bounded_by_amdahl(self):
        for config in (RMC1_SMALL, RMC2_SMALL, RMC3_SMALL):
            result = accelerate_fc(
                BROADWELL, config, 16, AcceleratorConfig(fc_speedup=1e6)
            )
            assert result.end_to_end_speedup <= result.amdahl_limit + 1e-6

    def test_overhead_can_negate_gain(self):
        """A slow offload path makes acceleration a loss for small FCs."""
        heavy = AcceleratorConfig(fc_speedup=10, offload_overhead_s=1e-3)
        result = accelerate_fc(BROADWELL, RMC1_SMALL, 1, heavy)
        assert result.end_to_end_speedup < 1.0

    def test_fc_share_matches_timing_model(self):
        result = accelerate_fc(BROADWELL, RMC3_SMALL, 16)
        assert result.fc_share > 0.9

    def test_sweep_monotone_in_speedup(self):
        sweeps = speedup_sweep(
            BROADWELL, [RMC3_SMALL], 16, fc_speedups=[2, 5, 10, 50]
        )
        speedups = [r.end_to_end_speedup for r in sweeps[RMC3_SMALL.name]]
        assert speedups == sorted(speedups)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(fc_speedup=0.9)
        with pytest.raises(ValueError):
            AcceleratorConfig(offload_overhead_s=-1)


class TestFcAccelExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return figfc_accelerator.run()

    def test_takeaway2_bounds_at_100x(self, result):
        """Even a 100x FC engine barely moves RMC2; RMC3 gains over 5x."""
        assert result.speedup("RMC2-small", 100.0) < 1.3
        assert result.speedup("RMC3-small", 100.0) > 5.0

    def test_render(self, result):
        text = figfc_accelerator.render(result)
        assert "100x FC" in text and "Amdahl limit" in text
