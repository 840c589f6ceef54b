"""Tests for the stream prefetcher and the roofline report."""

import numpy as np
import pytest

from repro.analysis import figure5_intensity_points, intensity_point
from repro.analysis.roofline import roofline_report
from repro.core.operators import EmbeddingTable, FullyConnected, SparseLengthsSum
from repro.core.operators.base import MemoryAccess
from repro.hw import BROADWELL, CacheHierarchy


def stream_misses(prefetch_degree: int) -> tuple[int, float]:
    """Misses for a cold 1 MB sequential stream."""
    h = CacheHierarchy(BROADWELL, prefetch_degree=prefetch_degree)
    h.access(MemoryAccess(address=0, size=1 << 20))
    return h.stats.dram_accesses, h.stats.prefetch_accuracy


def random_misses(prefetch_degree: int, seed: int = 0) -> tuple[int, float]:
    """Misses for 4000 random 64 B gathers over a 1 GB region."""
    h = CacheHierarchy(BROADWELL, prefetch_degree=prefetch_degree)
    rng = np.random.default_rng(seed)
    for _ in range(4000):
        addr = int(rng.integers(0, (1 << 30) // 64)) * 64
        h.access(MemoryAccess(address=addr, size=64))
    return h.stats.dram_accesses, h.stats.prefetch_accuracy


class TestPrefetcher:
    def test_streaming_misses_collapse(self):
        baseline, _ = stream_misses(0)
        prefetched, accuracy = stream_misses(4)
        assert prefetched < 0.3 * baseline
        assert accuracy > 0.9

    def test_random_gathers_barely_helped(self):
        baseline, _ = random_misses(0)
        prefetched, accuracy = random_misses(4)
        assert prefetched >= 0.95 * baseline  # no demand-miss reduction
        assert accuracy < 0.05  # nearly all prefetches are pollution

    def test_fc_weight_stream_misses_collapse(self):
        """FC's sequential weight stream is what prefetching is for."""
        fc = FullyConnected("fc", 2048, 1000)

        def stats(degree):
            h = CacheHierarchy(BROADWELL, prefetch_degree=degree)
            h.access_trace(fc.address_trace(32))
            return h.stats

        prefetched = stats(4)
        assert prefetched.dram_accesses < 0.3 * stats(0).dram_accesses
        assert prefetched.prefetch_accuracy > 0.9

    def test_sls_rows_get_second_line_from_prefetch(self):
        """A 128 B embedding row spans two lines; next-line prefetch covers
        the second — the only prefetcher win SLS sees. Deeper prefetch
        past the row end is mostly pollution."""
        table = EmbeddingTable(100_000, 32)
        sls = SparseLengthsSum("s", table, 80)
        rows = np.random.default_rng(1).integers(0, table.rows, size=3000)

        def stats(degree):
            h = CacheHierarchy(BROADWELL, prefetch_degree=degree)
            h.access_trace(sls.trace_for_rows(rows))
            return h.stats

        assert stats(1).dram_accesses < 0.7 * stats(0).dram_accesses
        assert stats(4).prefetch_accuracy < 0.5

    def test_zero_degree_issues_nothing(self):
        h = CacheHierarchy(BROADWELL, prefetch_degree=0)
        h.access(MemoryAccess(address=0, size=4096))
        assert h.stats.prefetches_issued == 0

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            CacheHierarchy(BROADWELL, prefetch_degree=-1)

    def test_accuracy_zero_without_prefetches(self):
        h = CacheHierarchy(BROADWELL)
        assert h.stats.prefetch_accuracy == 0.0


class TestRooflineReport:
    def test_sls_memory_bound_cnn_compute_bound(self):
        placements = {
            p.point.name: p
            for p in roofline_report(BROADWELL, figure5_intensity_points())
        }
        assert placements["SLS"].bound == "memory"
        assert placements["CNN"].bound == "compute"

    def test_attainable_below_peak(self):
        for p in roofline_report(BROADWELL, figure5_intensity_points()):
            assert p.attainable_gflops <= BROADWELL.peak_gflops_per_core + 1e-9

    def test_sls_attainable_tiny(self):
        placements = {
            p.point.name: p
            for p in roofline_report(BROADWELL, figure5_intensity_points())
        }
        # 0.25 FLOPs/B x 77 GB/s ≈ 19 GFLOP/s, a tenth of peak.
        assert placements["SLS"].attainable_gflops < 0.3 * BROADWELL.peak_gflops_per_core

    def test_fc_batch_dependence(self):
        fc = FullyConnected("fc", 2048, 1000)
        low = roofline_report(BROADWELL, [intensity_point(fc, 1)])[0]
        high = roofline_report(BROADWELL, [intensity_point(fc, 256)])[0]
        assert low.bound == "memory"
        assert high.attainable_gflops > low.attainable_gflops
