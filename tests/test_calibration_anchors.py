"""Paper-anchor tests: the timing model must reproduce the paper's *shape*.

Every assertion here corresponds to a quantitative claim in the paper
(Sections V-VI). Absolute tolerances are loose (we model, not measure), but
orderings, crossovers and rough factors must hold — these are the takeaway
messages of the paper.
"""

from dataclasses import replace

import pytest

from repro.config import RMC1_LARGE, RMC1_SMALL, RMC2_SMALL, RMC3_SMALL
from repro.hw import BROADWELL, ColocationState, HASWELL, SKYLAKE, TimingModel

RMC1, RMC2, RMC3 = RMC1_SMALL, RMC2_SMALL, RMC3_SMALL


def latency_ms(server, config, batch, state=None, **kw):
    tm = TimingModel(server)
    if state is None:
        return tm.model_latency(config, batch, **kw).total_seconds * 1e3
    return tm.model_latency(config, batch, state, **kw).total_seconds * 1e3


def homogeneous_state(server, config, batch, n):
    return TimingModel(server).colocation_state(config, batch, n)


class TestTakeaway1BatchOneLatency:
    """Fig 7 left: 0.04 / 0.30 / 0.60 ms on Broadwell; 15x spread."""

    def test_absolute_anchors_within_35_percent(self):
        assert latency_ms(BROADWELL, RMC1, 1) == pytest.approx(0.04, rel=0.35)
        assert latency_ms(BROADWELL, RMC2, 1) == pytest.approx(0.30, rel=0.35)
        assert latency_ms(BROADWELL, RMC3, 1) == pytest.approx(0.60, rel=0.35)

    def test_order_of_magnitude_spread(self):
        spread = latency_ms(BROADWELL, RMC3, 1) / latency_ms(BROADWELL, RMC1, 1)
        assert 8 < spread < 25  # paper: 15x

    def test_large_rmc1_roughly_2x_small(self):
        ratio = latency_ms(BROADWELL, RMC1_LARGE, 1) / latency_ms(BROADWELL, RMC1, 1)
        assert 1.5 < ratio < 5.0


class TestTakeaway2OperatorBreakdown:
    """Fig 7 right: no single operator dominates across all classes."""

    def test_rmc1_fc_dominated_with_visible_sls(self):
        frac = TimingModel(BROADWELL).model_latency(RMC1, 1).fraction_by_op_type()
        assert 0.45 < frac["FC"] < 0.85  # paper: ~61%
        assert 0.10 < frac["SLS"] < 0.35  # paper: ~20%

    def test_rmc2_sls_dominated(self):
        frac = TimingModel(BROADWELL).model_latency(RMC2, 1).fraction_by_op_type()
        assert frac["SLS"] > 0.7  # paper: ~80%

    def test_rmc3_fc_dominated(self):
        frac = TimingModel(BROADWELL).model_latency(RMC3, 1).fraction_by_op_type()
        assert frac["FC"] > 0.9  # paper: >96% incl. BatchMM

    def test_breakdowns_hold_across_servers(self):
        for server in (HASWELL, SKYLAKE):
            frac = TimingModel(server).model_latency(RMC2, 1).fraction_by_op_type()
            assert frac["SLS"] > 0.6


class TestTakeaway3BroadwellBestLowBatch:
    """Fig 8: Broadwell optimal at small batch on every model class."""

    @pytest.mark.parametrize("config", [RMC1, RMC2, RMC3])
    @pytest.mark.parametrize("batch", [1, 4, 16])
    def test_broadwell_wins_small_batch(self, config, batch):
        bdw = latency_ms(BROADWELL, config, batch)
        assert bdw < latency_ms(HASWELL, config, batch)
        assert bdw < latency_ms(SKYLAKE, config, batch)

    def test_batch16_speedup_factors(self):
        """Paper: BDW beats (HSW, SKL) by (1.4,1.5) RMC1, (1.3,1.4) RMC2,
        (1.32,1.65) RMC3. Allow +-30%."""
        anchors = {
            RMC1.name: (1.4, 1.5),
            RMC2.name: (1.3, 1.4),
            RMC3.name: (1.32, 1.65),
        }
        for config in (RMC1, RMC2, RMC3):
            bdw = latency_ms(BROADWELL, config, 16)
            hsw_ratio = latency_ms(HASWELL, config, 16) / bdw
            skl_ratio = latency_ms(SKYLAKE, config, 16) / bdw
            exp_hsw, exp_skl = anchors[config.name]
            assert hsw_ratio == pytest.approx(exp_hsw, rel=0.30)
            assert skl_ratio == pytest.approx(exp_skl, rel=0.30)


class TestTakeaway4SkylakeWinsLargeBatch:
    """Fig 8: AVX-512 pays off at large batch — crossover at ~64 for the
    compute-bound RMC3 and ~128-256 for the memory-bound classes."""

    def test_rmc3_crossover_at_64(self):
        assert latency_ms(SKYLAKE, RMC3, 64) < latency_ms(BROADWELL, RMC3, 64)
        assert latency_ms(SKYLAKE, RMC3, 16) > latency_ms(BROADWELL, RMC3, 16)

    @pytest.mark.parametrize("config", [RMC1, RMC2])
    def test_memory_models_crossover_by_256(self, config):
        assert latency_ms(SKYLAKE, config, 256) < latency_ms(BROADWELL, config, 256)
        assert latency_ms(SKYLAKE, config, 16) > latency_ms(BROADWELL, config, 16)

    def test_haswell_never_best(self):
        for config in (RMC1, RMC2, RMC3):
            for batch in (1, 16, 128):
                hsw = latency_ms(HASWELL, config, batch)
                assert hsw > min(
                    latency_ms(BROADWELL, config, batch),
                    latency_ms(SKYLAKE, config, batch),
                )


class TestTakeaway6ColocationDegradation:
    """Fig 9 on Broadwell, batch 32, 8 co-located jobs: RMC1 1.3x,
    RMC2 2.6x, RMC3 1.6x; RMC2's SLS 3x and FC 1.6x; RMC1's SLS share
    grows ~15% -> ~35%."""

    def degradation(self, config, n, batch=32):
        tm = TimingModel(BROADWELL)
        alone = tm.model_latency(config, batch).total_seconds
        state = homogeneous_state(BROADWELL, config, batch, n)
        return tm.model_latency(config, batch, state).total_seconds / alone

    def test_model_level_factors(self):
        assert self.degradation(RMC1, 8) == pytest.approx(1.3, rel=0.25)
        assert self.degradation(RMC2, 8) == pytest.approx(2.6, rel=0.25)
        assert self.degradation(RMC3, 8) == pytest.approx(1.6, rel=0.25)

    def test_rmc2_degrades_most(self):
        assert self.degradation(RMC2, 8) > self.degradation(RMC3, 8)
        assert self.degradation(RMC2, 8) > self.degradation(RMC1, 8)

    def test_degradation_monotone_in_jobs(self):
        values = [self.degradation(RMC2, n) for n in (1, 2, 4, 8)]
        assert values == sorted(values)
        assert values[0] == pytest.approx(1.0)

    def test_rmc2_operator_degradation(self):
        tm = TimingModel(BROADWELL)
        alone = tm.model_latency(RMC2, 32).seconds_by_op_type()
        state = homogeneous_state(BROADWELL, RMC2, 32, 8)
        loaded = tm.model_latency(RMC2, 32, state).seconds_by_op_type()
        assert loaded["SLS"] / alone["SLS"] == pytest.approx(3.0, rel=0.25)
        assert loaded["FC"] / alone["FC"] == pytest.approx(1.6, rel=0.25)

    def test_rmc1_sls_share_growth(self):
        tm = TimingModel(BROADWELL)
        alone = tm.model_latency(RMC1, 32).fraction_by_op_type()["SLS"]
        state = homogeneous_state(BROADWELL, RMC1, 32, 8)
        loaded = tm.model_latency(RMC1, 32, state).fraction_by_op_type()["SLS"]
        assert alone == pytest.approx(0.15, abs=0.07)
        assert loaded == pytest.approx(0.35, abs=0.10)


class TestTakeaway7InclusiveVsExclusive:
    """Fig 10: Broadwell best at low co-location; Skylake at high; Skylake
    shows a latency jump near ~18 jobs; Haswell trails."""

    def frontier(self, server, n):
        tm = TimingModel(server)
        state = homogeneous_state(server, RMC2, 32, n)
        return tm.model_latency(RMC2, 32, state).total_seconds

    def test_broadwell_best_at_low_colocation(self):
        for n in (1, 2):
            assert self.frontier(BROADWELL, n) < self.frontier(SKYLAKE, n)
            assert self.frontier(BROADWELL, n) < self.frontier(HASWELL, n)

    def test_skylake_best_at_high_colocation(self):
        for n in (12, 16):
            assert self.frontier(SKYLAKE, n) < self.frontier(BROADWELL, n)
            assert self.frontier(SKYLAKE, n) < self.frontier(HASWELL, n)

    def test_skylake_cliff_near_18(self):
        """Relative latency jump 18 -> 21 jobs much larger on Skylake."""
        skl_jump = self.frontier(SKYLAKE, 21) / self.frontier(SKYLAKE, 18)
        bdw_jump = self.frontier(BROADWELL, 21) / self.frontier(BROADWELL, 18)
        assert skl_jump > bdw_jump + 0.05

    def test_inclusive_servers_degrade_faster_early(self):
        bdw = self.frontier(BROADWELL, 8) / self.frontier(BROADWELL, 1)
        skl = self.frontier(SKYLAKE, 8) / self.frontier(SKYLAKE, 1)
        assert bdw > skl

    def test_inclusion_policy_alone_explains_the_gap(self):
        """Counterfactual: a Broadwell that differs only in an exclusive
        L2/L3 degrades visibly less at N <= 8, isolating back-invalidation
        from clock, cache size and DRAM. At N = 16 both hierarchies queue
        on DRAM bandwidth alike."""
        exclusive = replace(BROADWELL, name="Broadwell-X", inclusive_llc=False)

        def degradation(server, n):
            state = homogeneous_state(server, RMC2, 32, n)
            return latency_ms(server, RMC2, 32, state) / latency_ms(server, RMC2, 32)

        for n in (2, 4, 8):
            assert degradation(BROADWELL, n) > degradation(exclusive, n) + 0.1
        assert degradation(BROADWELL, 16) >= degradation(exclusive, 16) - 1e-9


class TestHyperthreading:
    """Section VI: HT degrades FC ~1.6x and SLS ~1.3x."""

    def test_operator_factors(self):
        tm = TimingModel(BROADWELL)
        plain = tm.model_latency(RMC2, 32).seconds_by_op_type()
        ht = tm.model_latency(
            RMC2, 32, ColocationState(num_jobs=1, hyperthreading=True)
        ).seconds_by_op_type()
        assert ht["FC"] / plain["FC"] == pytest.approx(1.6, rel=0.05)
        assert ht["SLS"] / plain["SLS"] == pytest.approx(1.3, rel=0.05)

    def test_compute_intensive_models_suffer_more(self):
        tm = TimingModel(BROADWELL)
        state = ColocationState(num_jobs=1, hyperthreading=True)

        def degradation(config):
            return (
                tm.model_latency(config, 32, state).total_seconds
                / tm.model_latency(config, 32).total_seconds
            )

        assert degradation(RMC3) > degradation(RMC2)
