"""Tests for config serialization and weighted SLS."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    ConfigError,
    PRODUCTION_PRESETS,
    RMC1_DOT,
    RMC1_SMALL,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from repro.core.operators import (
    EmbeddingTable,
    SparseBatch,
    SparseLengthsSum,
    SparseLengthsWeightedSum,
)


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(PRODUCTION_PRESETS))
    def test_round_trip_every_preset(self, name):
        config = PRODUCTION_PRESETS[name]
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt.describe() == config.describe()
        assert rebuilt.interaction == config.interaction
        assert rebuilt.dtype == config.dtype

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        save_config(RMC1_DOT, path)
        rebuilt = load_config(path)
        assert rebuilt.name == RMC1_DOT.name
        assert rebuilt.interaction == "dot"
        assert rebuilt.flops_per_sample() == RMC1_DOT.flops_per_sample()

    def test_rejects_wrong_schema_version(self):
        data = config_to_dict(RMC1_SMALL)
        data["schema_version"] = 99
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_rejects_missing_fields(self):
        data = config_to_dict(RMC1_SMALL)
        del data["bottom_mlp"]
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_invalid_payload_fails_validation(self):
        data = config_to_dict(RMC1_SMALL)
        data["embedding_tables"] = []
        with pytest.raises(ConfigError):
            config_from_dict(data)


class TestSerializationProperty:
    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(sorted(PRODUCTION_PRESETS)))
    def test_round_trip_preserves_all_costs(self, name):
        config = PRODUCTION_PRESETS[name]
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt.flops_per_sample() == config.flops_per_sample()
        assert rebuilt.bytes_read_per_sample() == config.bytes_read_per_sample()
        assert rebuilt.total_storage_bytes() == config.total_storage_bytes()
        assert rebuilt.top_mlp_input_dim == config.top_mlp_input_dim


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
