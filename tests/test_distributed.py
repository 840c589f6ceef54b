"""Tests for sharded (distributed) inference."""

import pytest

from repro.config import RMC1_SMALL, RMC2_SMALL
from repro.hw import BROADWELL
from repro.serving import (
    NetworkConfig,
    min_shards_for_capacity,
    shard_tables,
)


class TestShardPlan:
    def test_all_tables_assigned(self):
        plan = shard_tables(RMC2_SMALL, 4)
        assert len(plan.table_assignment) == RMC2_SMALL.num_tables
        assert set(plan.table_assignment) == {0, 1, 2, 3}

    def test_balanced_for_uniform_tables(self):
        plan = shard_tables(RMC2_SMALL, 4)
        counts = [len(plan.tables_of(s)) for s in range(4)]
        assert max(counts) - min(counts) <= 1

    def test_single_shard(self):
        plan = shard_tables(RMC2_SMALL, 1)
        assert set(plan.table_assignment) == {0}

    def test_more_shards_than_tables(self):
        plan = shard_tables(RMC1_SMALL, 8)
        used = {s for s in plan.table_assignment}
        assert len(used) == RMC1_SMALL.num_tables  # one table each

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_tables(RMC2_SMALL, 0)


class TestCapacityPlanning:
    def test_small_model_needs_one_shard(self):
        assert min_shards_for_capacity(RMC2_SMALL, BROADWELL) == 1

    def test_shard_count_grows_with_shrinking_budget(self):
        # Squeeze the usable DRAM until RMC2's ~10 GB of tables must split.
        table_bytes = RMC2_SMALL.embedding_tables[0].storage_bytes()
        tight = table_bytes * 3 / BROADWELL.dram_capacity_bytes
        shards = min_shards_for_capacity(RMC2_SMALL, BROADWELL, dram_headroom=tight)
        assert shards >= RMC2_SMALL.num_tables // 3
        plan = shard_tables(RMC2_SMALL, shards)
        budget = int(BROADWELL.dram_capacity_bytes * tight)
        for shard in range(plan.num_shards):
            owned = sum(
                RMC2_SMALL.embedding_tables[i].storage_bytes()
                for i in plan.tables_of(shard)
            )
            assert owned <= budget

    def test_table_larger_than_budget_is_rejected(self):
        table_bytes = RMC2_SMALL.embedding_tables[0].storage_bytes()
        too_tight = table_bytes * 0.5 / BROADWELL.dram_capacity_bytes
        with pytest.raises(ValueError):
            min_shards_for_capacity(RMC2_SMALL, BROADWELL, dram_headroom=too_tight)

    def test_rejects_bad_headroom(self):
        with pytest.raises(ValueError):
            min_shards_for_capacity(RMC2_SMALL, BROADWELL, dram_headroom=0.0)

    def test_rejects_negative_headroom(self):
        with pytest.raises(ValueError, match="dram_headroom"):
            min_shards_for_capacity(RMC2_SMALL, BROADWELL, dram_headroom=-0.5)

    def test_rejects_headroom_above_one(self):
        with pytest.raises(ValueError, match="dram_headroom"):
            min_shards_for_capacity(RMC2_SMALL, BROADWELL, dram_headroom=1.5)

    def test_accepts_full_headroom(self):
        assert min_shards_for_capacity(RMC2_SMALL, BROADWELL, dram_headroom=1.0) == 1


class TestDistributedLatency:
    def test_rejects_bad_network(self):
        with pytest.raises(ValueError):
            NetworkConfig(rtt_s=-1)
