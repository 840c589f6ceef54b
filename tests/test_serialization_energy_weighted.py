"""Tests for weighted SLS."""

import numpy as np
import pytest

from repro.core.operators import (
    EmbeddingTable,
    SparseBatch,
    SparseLengthsSum,
    SparseLengthsWeightedSum,
)


class TestWeightedSls:
    @pytest.fixture(scope="class")
    def ops(self):
        table = EmbeddingTable(100, 8, rng=np.random.default_rng(5))
        return (
            SparseLengthsSum("plain", table, 3),
            SparseLengthsWeightedSum("weighted", table, 3),
            table,
        )

    def test_unit_weights_match_plain_sls(self, ops):
        plain, weighted, _ = ops
        batch = SparseBatch.from_lists([[1, 2, 3], [4, 5, 6]])
        ones = np.ones(6, dtype=np.float32)
        np.testing.assert_allclose(
            weighted.forward(batch, ones), plain.forward(batch), rtol=1e-6
        )

    def test_weights_scale_rows(self, ops):
        _, weighted, table = ops
        batch = SparseBatch.from_lists([[7]])
        out = weighted.forward(batch, np.array([2.5], dtype=np.float32))
        np.testing.assert_allclose(out[0], 2.5 * table.data[7], rtol=1e-6)

    def test_rejects_weight_mismatch(self, ops):
        _, weighted, _ = ops
        batch = SparseBatch.from_lists([[1, 2]])
        with pytest.raises(ValueError):
            weighted.forward(batch, np.array([1.0]))

    def test_out_of_range_raises(self, ops):
        _, weighted, _ = ops
        batch = SparseBatch.from_lists([[100]])
        with pytest.raises(IndexError):
            weighted.forward(batch, np.array([1.0]))

    def test_cost_includes_weight_reads(self, ops):
        plain, weighted, _ = ops
        assert weighted.cost(4).bytes_read > plain.cost(4).bytes_read
        assert weighted.cost(4).flops == 2 * plain.cost(4).flops
