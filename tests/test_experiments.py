"""Integration tests: every experiment module reproduces its paper claims."""

import pytest

from repro.experiments import (
    REGISTRY,
    fig01_cycles,
    fig02_flops_bytes,
    fig04_operator_cycles,
    fig07_single_model,
    fig08_batch_sweep,
    fig10_latency_throughput,
    fig12_ncf_comparison,
    fig14_trace_locality,
    micro_takeaways,
    table1_model_params,
    table2_servers,
    table3_bottlenecks,
)


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {
            "figure1", "figure2", "figure4", "figure5", "figure7", "figure8",
            "figure9", "figure10", "figure11", "figure11x", "figure11y",
            "figure11z", "figure12", "figure14", "fignmp", "fleet",
            "multimodel",
            "table1", "table2", "table3", "micro", "configspace", "whatif",
            "fcaccel",
        }
        assert set(REGISTRY) == expected

    def test_every_module_has_run_and_render(self):
        for module in REGISTRY.values():
            assert callable(module.run)
            assert callable(module.render)


class TestFigure1:
    def test_shares(self):
        result = fig01_cycles.run()
        assert result.rmc_core_share == pytest.approx(0.65, abs=0.02)
        assert result.recommendation_share >= 0.78
        assert sum(result.by_class.values()) == pytest.approx(1.0)

    def test_render_mentions_anchors(self):
        text = fig01_cycles.render(fig01_cycles.run())
        assert "65%" in text and "79%" in text


class TestFigure2:
    def test_rmc_models_low_intensity(self):
        points = fig02_flops_bytes.run().by_name()
        for name in ("RMC1-small", "RMC2-small", "RMC3-small"):
            assert points[name].operational_intensity < 1.0

    def test_cnn_highest_intensity(self):
        points = fig02_flops_bytes.run().by_name()
        assert points["ResNet50"].operational_intensity > 10

    def test_cnn_rnn_far_more_flops_than_rmcs(self):
        points = fig02_flops_bytes.run().by_name()
        for dense in ("ResNet50", "GNMT-RNN"):
            assert points[dense].flops > 50 * points["RMC3-small"].flops

    def test_rmc2_reads_most_bytes_of_rmcs_at_batch1_storage(self):
        points = fig02_flops_bytes.run().by_name()
        assert points["RMC2-small"].storage_bytes > points["RMC3-small"].storage_bytes
        assert (
            points["RMC2-small"].storage_bytes
            > 100 * points["MLPerf-NCF"].storage_bytes
        )


class TestFigure4:
    def test_sls_exclusive_to_recommendation(self):
        result = fig04_operator_cycles.run()
        assert result.non_recommendation.get("SLS", 0.0) == 0.0
        assert result.recommendation["SLS"] > 0.1

    def test_totals_sum_to_one(self):
        result = fig04_operator_cycles.run()
        assert sum(result.total.values()) == pytest.approx(1.0, abs=0.01)


class TestFigure7:
    def test_paper_latency_ordering(self):
        result = fig07_single_model.run()
        assert (
            result.latency_ms("RMC1-small")
            < result.latency_ms("RMC2-small")
            < result.latency_ms("RMC3-small")
        )
        assert 0.02 < result.latency_ms("RMC1-small") < 0.06
        assert 0.18 < result.latency_ms("RMC2-small") < 0.42
        assert 0.40 < result.latency_ms("RMC3-small") < 0.85

    def test_large_rmc1_slower(self):
        result = fig07_single_model.run()
        assert result.latency_ms("RMC1-large") > 1.5 * result.latency_ms("RMC1-small")

    def test_breakdown_signatures(self):
        result = fig07_single_model.run()
        assert result.breakdown("RMC2-small")["SLS"] > 0.7
        assert result.breakdown("RMC3-small")["FC"] > 0.9


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self):
        return fig08_batch_sweep.run()

    def test_broadwell_best_small_batches(self, result):
        for model in ("RMC1-small", "RMC2-small", "RMC3-small"):
            for batch in (1, 4, 16):
                assert result.best_server(model, batch) == "Broadwell"

    def test_skylake_best_large_batches(self, result):
        assert result.best_server("RMC3-small", 64) == "Skylake"
        for model in ("RMC1-small", "RMC2-small", "RMC3-small"):
            assert result.best_server(model, 256) == "Skylake"

    def test_grid_complete(self, result):
        assert len(result.cells) == 3 * 3 * 6


class TestFigure10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10_latency_throughput.run()

    def test_broadwell_lowest_latency_alone(self, result):
        assert (
            result.point("Broadwell", 1).latency_s
            < result.point("Skylake", 1).latency_s
        )

    def test_skylake_highest_throughput_high_colocation(self, result):
        assert (
            result.point("Skylake", 16).items_per_s
            > result.point("Broadwell", 16).items_per_s
            > result.point("Haswell", 16).items_per_s
        )

    def test_latency_degrades_then_plateaus(self, result):
        frontier = result.frontiers["Broadwell"]
        early_growth = frontier[3].latency_s / frontier[0].latency_s
        late_growth = frontier[11].latency_s / frontier[7].latency_s
        assert early_growth > late_growth

    def test_render_includes_sla_summary(self, result):
        assert "Under SLA" in fig10_latency_throughput.render(result)


class TestFigure12:
    def test_rmc_latency_orders_of_magnitude_above_ncf(self):
        rows = fig12_ncf_comparison.run().by_name()
        assert rows["RMC2-small"].latency_vs_ncf > 20
        assert rows["RMC3-small"].latency_vs_ncf > 20

    def test_embedding_and_fc_gaps(self):
        rows = fig12_ncf_comparison.run().by_name()
        assert rows["RMC2-small"].embedding_vs_ncf > 50
        assert rows["RMC3-small"].fc_params_vs_ncf > 10

    def test_operator_mix_contrast(self):
        """NCF is FC-dominated; batched RMC2 is SLS-dominated (Section VII)."""
        rows = fig12_ncf_comparison.run().by_name()
        assert rows["MLPerf-NCF"].fc_time_share > 0.7
        assert rows["RMC2-small"].sls_time_share > 0.7

    def test_requires_ncf_in_set(self):
        from repro.config import RMC1_SMALL

        with pytest.raises(ValueError):
            fig12_ncf_comparison.run(configs=[RMC1_SMALL])


class TestFigure14:
    @pytest.fixture(scope="class")
    def result(self):
        return fig14_trace_locality.run(trace_length=8000)

    def test_random_trace_near_fully_unique(self, result):
        assert result.unique_fractions()["random"] > 0.9

    def test_spread_covers_paper_range(self, result):
        fractions = list(result.unique_fractions().values())
        assert max(fractions) > 0.9
        assert min(fractions) < 0.15

    def test_locality_reduces_mpki(self, result):
        by_unique = sorted(result.rows, key=lambda r: r.unique_fraction)
        assert by_unique[0].llc_mpki < 0.5 * by_unique[-1].llc_mpki


class TestTables:
    def test_table1_ratios(self):
        rows = table1_model_params.run().by_class()
        assert rows["RMC3"].bottom_fc[0] == pytest.approx(80)
        assert rows["RMC2"].num_tables == pytest.approx(10)

    def test_table2_lists_three_generations(self):
        result = table2_servers.run()
        assert [s.name for s in result.servers] == ["Haswell", "Broadwell", "Skylake"]

    def test_table3_classifications(self):
        rows = table3_bottlenecks.run().by_class()
        assert rows["RMC2"].classification == "Embedding dominated"
        assert rows["RMC1"].classification == "MLP dominated"
        assert rows["RMC3"].classification == "MLP dominated"

    def test_table3_sensitivities(self):
        """MLP models gain from clock; embedding models from DRAM."""
        rows = table3_bottlenecks.run().by_class()
        assert rows["RMC3"].frequency_sensitivity > rows["RMC3"].dram_sensitivity
        assert rows["RMC2"].dram_sensitivity > rows["RMC2"].frequency_sensitivity


class TestMicroTakeaways:
    def test_simd_anchors(self):
        result = micro_takeaways.run()
        by_batch = {r.batch_size: r for r in result.simd_scaling}
        assert by_batch[4].throughput_ratio == pytest.approx(2.9)
        assert by_batch[16].throughput_ratio == pytest.approx(14.5)

    def test_hyperthreading_factors(self):
        result = micro_takeaways.run()
        for row in result.hyperthreading:
            assert row.fc_degradation == pytest.approx(1.6, rel=0.05)
            assert row.sls_degradation == pytest.approx(1.3, rel=0.05)

    def test_rmc3_suffers_most_from_ht(self):
        result = micro_takeaways.run()
        by_model = {r.model_name: r for r in result.hyperthreading}
        assert (
            by_model["RMC3-small"].total_degradation
            > by_model["RMC2-small"].total_degradation
        )


class TestRenderAll:
    @pytest.mark.parametrize(
        "exp_id",
        ["figure1", "figure2", "figure4", "figure7", "figure8", "figure9",
         "figure10", "figure12", "table1", "table2", "table3", "micro"],
    )
    def test_render_produces_text(self, exp_id):
        module = REGISTRY[exp_id]
        text = module.render(module.run())
        assert isinstance(text, str)
        assert len(text) > 50
