"""Tests for near-memory processing."""

import pytest

from repro.config import RMC1_SMALL, RMC2_SMALL, RMC3_SMALL
from repro.hw import BROADWELL
from repro.memory import NmpConfig, nmp_speedup


class TestNearMemory:
    def test_rmc2_gains_most(self):
        """NMP accelerates SLS: the embedding-dominated class wins big."""
        rmc2 = nmp_speedup(BROADWELL, RMC2_SMALL, 16)
        rmc3 = nmp_speedup(BROADWELL, RMC3_SMALL, 16)
        assert rmc2.end_to_end_speedup > 2.0
        assert rmc3.end_to_end_speedup < 1.1
        assert rmc2.end_to_end_speedup > rmc2.sls_share  # sanity

    def test_speedup_bounded_by_amdahl(self):
        result = nmp_speedup(BROADWELL, RMC2_SMALL, 16, NmpConfig(sls_speedup=1000))
        amdahl = 1.0 / (1.0 - result.sls_share)
        assert result.end_to_end_speedup <= amdahl + 1e-6

    def test_rmc1_modest(self):
        result = nmp_speedup(BROADWELL, RMC1_SMALL, 16)
        assert 1.0 <= result.end_to_end_speedup < 1.5

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            NmpConfig(sls_speedup=0.5)
