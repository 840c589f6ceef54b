"""Tier-2 tests for repro.tools.staticcheck: every rule must fire on its
fixture violation and stay silent on the idiomatic counterpart, the baseline
round-trips, the JSON reporter keeps its schema, and the preset graph
validator proves both directions."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.config.model_config import (
    EmbeddingTableConfig,
    MLPConfig,
    ModelConfig,
)
from repro.config.presets import PRODUCTION_PRESETS
from repro.tools.staticcheck import load_project, run_checks, validate_config, validate_presets
from repro.tools.staticcheck.__main__ import main
from repro.tools.staticcheck.baseline import (
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.tools.staticcheck.reporters import REPORT_SCHEMA_VERSION
from repro.tools.staticcheck.rules import ALL_RULES, select_rules


def check_snippet(tmp_path: Path, source: str, rule: str, relname: str = "snippet.py"):
    """Write ``source`` under ``tmp_path`` and run one rule over it."""
    target = tmp_path / relname
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    project = load_project([tmp_path], root=tmp_path)
    return run_checks(project, select_rules([rule]))


# --------------------------------------------------------------------- SC101


OPERATOR_PREAMBLE = """
    class Operator:
        pass

    class OperatorCost:
        def __init__(self, flops=0, bytes_read=0, bytes_written=0):
            pass
"""


class TestCostContract:
    def test_missing_cost_flagged(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            OPERATOR_PREAMBLE
            + """
            class Broken(Operator):
                def forward(self, x):
                    return x
            """,
            "SC101",
        )
        assert len(violations) == 1
        assert "never implements cost()" in violations[0].message

    def test_product_without_batch_term_flagged(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            OPERATOR_PREAMBLE
            + """
            class DroppedBatch(Operator):
                def forward(self, x):
                    return x

                def cost(self, batch_size):
                    read = batch_size * self.dim * 4
                    return OperatorCost(
                        flops=self.rows * self.dim * 2,
                        bytes_read=read,
                        bytes_written=read,
                    )
            """,
            "SC101",
        )
        assert len(violations) == 1
        assert "flops" in violations[0].message
        assert "batch term dropped" in violations[0].message

    def test_unused_batch_parameter_flagged(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            OPERATOR_PREAMBLE
            + """
            class Fixed(Operator):
                def forward(self, x):
                    return x

                def cost(self, batch_size):
                    return OperatorCost(flops=100, bytes_read=10, bytes_written=10)
            """,
            "SC101",
        )
        assert len(violations) == 1
        assert "never uses its batch parameter" in violations[0].message

    def test_transitive_batch_flow_accepted(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            OPERATOR_PREAMBLE
            + """
            class Good(Operator):
                def forward(self, x):
                    return x

                def cost(self, batch_size):
                    lookups = batch_size * self.lookups_per_sample
                    flops = lookups * self.dim
                    return OperatorCost(
                        flops=flops,
                        bytes_read=lookups * self.dim * 4,
                        bytes_written=batch_size * self.dim * 4,
                    )
            """,
            "SC101",
        )
        assert violations == []

    def test_test_modules_exempt(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            OPERATOR_PREAMBLE
            + """
            class Stub(Operator):
                def forward(self, x):
                    return x
            """,
            "SC101",
            relname="test_stub.py",
        )
        assert violations == []

    def test_repo_operators_clean(self):
        repo_root = Path(__file__).resolve().parent.parent
        project = load_project([repo_root / "src"], root=repo_root)
        assert run_checks(project, select_rules(["SC101"])) == []


# --------------------------------------------------------------------- SC201


class TestUnitSuffix:
    def test_mixed_unit_addition_flagged(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            def total(queue_ns, service_s):
                return queue_ns + service_s
            """,
            "SC201",
        )
        assert len(violations) == 1
        assert "'_ns'" in violations[0].message and "'_s'" in violations[0].message

    def test_mixed_unit_comparison_flagged(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            def over(used_gb, limit_bytes):
                return used_gb > limit_bytes
            """,
            "SC201",
        )
        assert len(violations) == 1

    def test_bare_latency_assignment_flagged(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            def f(t0_s, t1_s):
                latency = t1_s - t0_s
                return latency
            """,
            "SC201",
        )
        assert len(violations) == 1
        assert "no unit suffix" in violations[0].message

    def test_bare_annotated_param_flagged(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            def serve(timeout: float) -> None:
                pass
            """,
            "SC201",
        )
        assert len(violations) == 1

    def test_consistent_units_accepted(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            def total(queue_ns, service_ns, payload_bytes, window_bytes):
                latency_ns = queue_ns + service_ns
                footprint_bytes = payload_bytes + window_bytes
                converted_s = latency_ns * 1e-9
                rate = payload_bytes / converted_s
                return latency_ns, footprint_bytes, rate
            """,
            "SC201",
        )
        assert violations == []

    def test_rates_are_not_units(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            def bw(dram_bw_bytes_per_s, nic_bytes_per_s):
                return dram_bw_bytes_per_s + nic_bytes_per_s
            """,
            "SC201",
        )
        assert violations == []


# --------------------------------------------------------------------- SC301


class TestDeterminism:
    def test_global_numpy_rng_flagged(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            import numpy as np

            def sample():
                return np.random.rand(4)
            """,
            "SC301",
        )
        assert len(violations) == 1
        assert "global RNG" in violations[0].message

    def test_unseeded_default_rng_flagged(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            import numpy as np

            rng = np.random.default_rng()
            """,
            "SC301",
        )
        assert len(violations) == 1
        assert "without a seed" in violations[0].message

    def test_default_rng_none_flagged(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            import numpy as np

            rng = np.random.default_rng(None)
            """,
            "SC301",
        )
        assert len(violations) == 1

    def test_stdlib_random_flagged(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            import random
            from random import shuffle

            def scramble(items):
                shuffle(items)
                return random.choice(items)
            """,
            "SC301",
        )
        assert len(violations) == 2

    def test_seeded_generator_accepted(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            import numpy as np

            def make(seed: int = 0):
                rng = np.random.default_rng(seed)
                return rng.integers(0, 10, size=4)
            """,
            "SC301",
        )
        assert violations == []

    def test_tests_are_exempt(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            import numpy as np

            def fuzz():
                return np.random.rand(4)
            """,
            "SC301",
            relname="test_fuzz.py",
        )
        assert violations == []

    def test_inline_suppression(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            import numpy as np

            entropy = np.random.default_rng()  # staticcheck: ignore[SC301]
            """,
            "SC301",
        )
        assert violations == []


# --------------------------------------------------------------------- SC401


class TestDtypeDiscipline:
    def test_allocator_without_dtype_flagged(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            import numpy as np

            def alloc(batch):
                return np.zeros((batch, 32))
            """,
            "SC401",
            relname="core/operators/kernel.py",
        )
        assert len(violations) == 1
        assert "dtype=" in violations[0].message

    def test_astype_float64_flagged(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            import numpy as np

            def widen(x):
                return x.astype(float)
            """,
            "SC401",
            relname="core/operators/kernel.py",
        )
        assert len(violations) == 1
        assert "float64" in violations[0].message

    def test_explicit_fp32_accepted(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            import numpy as np

            def alloc(batch):
                out = np.zeros((batch, 32), dtype=np.float32)
                idx = np.empty(0, dtype=np.int64)
                return out, idx, out.astype(np.float32, copy=False)
            """,
            "SC401",
            relname="core/operators/kernel.py",
        )
        assert violations == []

    def test_outside_hot_path_exempt(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            import numpy as np

            def analysis_buffer(n):
                return np.zeros(n)
            """,
            "SC401",
            relname="analysis/helper.py",
        )
        assert violations == []


# --------------------------------------------------------------------- SC501


_CONFIG_FIXTURE = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class ModelConfig:
        used_knob: int
        dead_knob: int
"""


class TestConfigReachability:
    def test_dead_knob_flagged(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "config.py").write_text(textwrap.dedent(_CONFIG_FIXTURE))
        (tmp_path / "src" / "consumer.py").write_text(
            "def f(cfg):\n    return cfg.used_knob\n"
        )
        project = load_project([tmp_path], root=tmp_path)
        violations = run_checks(project, select_rules(["SC501"]))
        assert len(violations) == 1
        assert "ModelConfig.dead_knob" in violations[0].message

    def test_read_knob_accepted(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "config.py").write_text(textwrap.dedent(_CONFIG_FIXTURE))
        (tmp_path / "src" / "consumer.py").write_text(
            "def f(cfg):\n    return cfg.used_knob + cfg.dead_knob\n"
        )
        project = load_project([tmp_path], root=tmp_path)
        assert run_checks(project, select_rules(["SC501"])) == []


# --------------------------------------------------------------------- SC601


_GOOD_EXPERIMENT = """
    def run(batch_size: int = 16):
        return {"batch": batch_size}

    def render(result):
        return str(result)
"""


def _write_experiment(
    tmp_path: Path, body: str, registry: str, name: str = "fig99_fixture"
) -> Path:
    exp = tmp_path / "experiments"
    exp.mkdir()
    (exp / f"{name}.py").write_text(textwrap.dedent(body))
    (exp / "__init__.py").write_text(textwrap.dedent(registry))
    return tmp_path


class TestExperimentRegistry:
    def test_conforming_module_accepted(self, tmp_path):
        _write_experiment(
            tmp_path,
            _GOOD_EXPERIMENT,
            'REGISTRY = {"figure99": "fig99_fixture"}\n',
        )
        project = load_project([tmp_path], root=tmp_path)
        assert run_checks(project, select_rules(["SC601"])) == []

    def test_missing_run_and_render_flagged(self, tmp_path):
        _write_experiment(
            tmp_path,
            "VALUE = 1\n",
            'REGISTRY = {"figure99": "fig99_fixture"}\n',
        )
        project = load_project([tmp_path], root=tmp_path)
        messages = [v.message for v in run_checks(project, select_rules(["SC601"]))]
        assert any("no top-level run()" in m for m in messages)
        assert any("no top-level render" in m for m in messages)

    def test_required_parameter_flagged(self, tmp_path):
        _write_experiment(
            tmp_path,
            """
            def run(fleet):
                return fleet

            def render(result):
                return str(result)
            """,
            'REGISTRY = {"figure99": "fig99_fixture"}\n',
        )
        project = load_project([tmp_path], root=tmp_path)
        violations = run_checks(project, select_rules(["SC601"]))
        assert len(violations) == 1
        assert "without defaults" in violations[0].message

    def test_unregistered_module_flagged(self, tmp_path):
        _write_experiment(tmp_path, _GOOD_EXPERIMENT, "REGISTRY = {}\n")
        project = load_project([tmp_path], root=tmp_path)
        violations = run_checks(project, select_rules(["SC601"]))
        assert len(violations) == 1
        assert "missing from" in violations[0].message

    def test_unregistered_non_figure_module_flagged(self, tmp_path):
        # Modules outside the fig*/table* naming (whatif_memory,
        # fleet_day, ...) are experiments too.
        _write_experiment(
            tmp_path, _GOOD_EXPERIMENT, "REGISTRY = {}\n", name="whatif_fixture"
        )
        project = load_project([tmp_path], root=tmp_path)
        violations = run_checks(project, select_rules(["SC601"]))
        assert len(violations) == 1
        assert "'whatif_fixture' is missing from" in violations[0].message

    def test_dangling_registry_value_flagged(self, tmp_path):
        _write_experiment(
            tmp_path,
            _GOOD_EXPERIMENT,
            'REGISTRY = {"figure99": "fig99_fixture", "gone": "fig98_gone"}\n',
        )
        project = load_project([tmp_path], root=tmp_path)
        violations = run_checks(project, select_rules(["SC601"]))
        assert len(violations) == 1
        assert "'fig98_gone'" in violations[0].message
        assert violations[0].path.endswith("__init__.py")


# --------------------------------------------------------------------- SC801


class TestObsNaming:
    def test_bad_span_name_flagged(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            def record(tracer, now_s):
                span_id = tracer.begin("bad-name", now_s)
                tracer.end(span_id, now_s)
            """,
            "SC801",
        )
        assert len(violations) == 1
        assert "layer.component.event" in violations[0].message

    def test_two_segment_name_flagged(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            def record(registry):
                registry.counter("serving.retries").inc()
            """,
            "SC801",
        )
        assert len(violations) == 1
        assert "'serving.retries'" in violations[0].message

    def test_good_names_pass(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            def record(tracer, registry, now_s):
                span_id = tracer.begin("serving.router.attempt", now_s)
                tracer.instant("serving.router.retry", now_s)
                tracer.end(span_id, now_s)
                registry.counter("serving.router.retries").inc()
                registry.histogram("serving.router.latency_s").observe(0.1)
            """,
            "SC801",
        )
        assert violations == []

    def test_discarded_begin_flagged(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            def record(tracer, now_s):
                tracer.begin("serving.router.request", now_s)
            """,
            "SC801",
        )
        assert len(violations) == 1
        assert "discarded" in violations[0].message

    def test_dynamic_name_trusted(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            def record(tracer, op_type, begin_s, end_s):
                tracer.complete(f"serving.op.{op_type}", begin_s, end_s)
            """,
            "SC801",
        )
        assert violations == []

    def test_tests_exempt(self, tmp_path):
        violations = check_snippet(
            tmp_path,
            """
            def test_rejects_bad_name(tracer):
                tracer.instant("not dotted", 0.0)
            """,
            "SC801",
            relname="tests/test_fixture.py",
        )
        assert violations == []


# ------------------------------------------------------------ graph validator


def _config(top=(128, 64, 1), final="sigmoid", interaction="concat", dims=(32, 32)):
    return ModelConfig(
        name="fixture",
        model_class="RMC1",
        dense_features=64,
        bottom_mlp=MLPConfig([128, 32]),
        embedding_tables=tuple(
            EmbeddingTableConfig(rows=1000, dim=d, lookups_per_sample=4) for d in dims
        ),
        top_mlp=MLPConfig(list(top), final_activation=final),
        interaction=interaction,
    )


class TestGraphValidator:
    def test_all_production_presets_valid(self):
        assert validate_presets() == []

    def test_explicit_preset_list(self):
        assert validate_presets(PRODUCTION_PRESETS.values()) == []

    def test_non_scalar_ctr_head_flagged(self):
        problems = validate_config(_config(top=(128, 7), final=None))
        stages = {p.stage for p in problems}
        assert "top-mlp" in stages
        assert any("width 1" in p.message for p in problems)

    def test_missing_sigmoid_flagged(self):
        problems = validate_config(_config(final=None))
        assert any("sigmoid" in p.message for p in problems)

    def test_top_input_drift_flagged(self):
        class Drifted(ModelConfig):
            @property
            def top_mlp_input_dim(self):  # simulates property/graph drift
                return 9999

        cfg = Drifted(
            name="drifted",
            model_class="RMC1",
            dense_features=64,
            bottom_mlp=MLPConfig([128, 32]),
            embedding_tables=(
                EmbeddingTableConfig(rows=1000, dim=32, lookups_per_sample=4),
            ),
            top_mlp=MLPConfig([64, 1], final_activation="sigmoid"),
        )
        problems = validate_config(cfg)
        assert any(p.stage == "concat" for p in problems)


# ------------------------------------------------------------------ baseline


_VIOLATING = """
    import numpy as np

    rng = np.random.default_rng()
"""


class TestBaseline:
    def test_round_trip_suppresses_everything(self, tmp_path):
        (tmp_path / "mod.py").write_text(textwrap.dedent(_VIOLATING))
        project = load_project([tmp_path], root=tmp_path)
        violations = run_checks(project, select_rules(["SC301"]))
        assert violations

        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline_path, violations)
        baseline = load_baseline(baseline_path)
        new, suppressed = apply_baseline(violations, baseline)
        assert new == []
        assert suppressed == len(violations)

    def test_new_violation_survives_baseline(self, tmp_path):
        (tmp_path / "mod.py").write_text(textwrap.dedent(_VIOLATING))
        project = load_project([tmp_path], root=tmp_path)
        violations = run_checks(project, select_rules(["SC301"]))
        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline_path, violations)

        (tmp_path / "other.py").write_text(textwrap.dedent(_VIOLATING))
        project = load_project([tmp_path], root=tmp_path)
        violations = run_checks(project, select_rules(["SC301"]))
        new, suppressed = apply_baseline(violations, load_baseline(baseline_path))
        assert len(new) == 1
        assert new[0].path == "other.py"
        assert suppressed == 1

    def test_baseline_is_a_multiset(self, tmp_path):
        source = textwrap.dedent(
            """
            import numpy as np

            a = np.random.default_rng()
            """
        )
        (tmp_path / "mod.py").write_text(source)
        project = load_project([tmp_path], root=tmp_path)
        violations = run_checks(project, select_rules(["SC301"]))
        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline_path, violations)

        # A second occurrence of the SAME fingerprint must still fail.
        (tmp_path / "mod.py").write_text(
            source + "b = np.random.default_rng()\n"
        )
        project = load_project([tmp_path], root=tmp_path)
        violations = run_checks(project, select_rules(["SC301"]))
        new, _ = apply_baseline(violations, load_baseline(baseline_path))
        assert len(new) == 1


# ----------------------------------------------------------------- CLI + JSON


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x_ns = 1\n")
        code = main([str(tmp_path), "--root", str(tmp_path), "--no-graphs"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_nonzero_with_location(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(textwrap.dedent(_VIOLATING))
        code = main([str(tmp_path), "--root", str(tmp_path), "--no-graphs"])
        assert code == 1
        out = capsys.readouterr().out
        assert "bad.py:4:" in out  # file:line diagnostics
        assert "SC301" in out

    def test_parse_error_fails_the_run(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        code = main([str(tmp_path), "--root", str(tmp_path), "--no-graphs"])
        assert code == 1
        assert "SC001" in capsys.readouterr().out

    def test_write_then_check_with_baseline(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(textwrap.dedent(_VIOLATING))
        baseline = tmp_path / "accepted.json"
        assert (
            main(
                [
                    str(tmp_path),
                    "--root",
                    str(tmp_path),
                    "--no-graphs",
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    str(tmp_path),
                    "--root",
                    str(tmp_path),
                    "--no-graphs",
                    "--baseline",
                    str(baseline),
                ]
            )
            == 0
        )

    def test_json_report_schema(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(textwrap.dedent(_VIOLATING))
        code = main([str(tmp_path), "--root", str(tmp_path), "--no-graphs", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["exit_code"] == 1
        assert payload["checked_files"] == 1
        assert isinstance(payload["counts"], dict)
        violation = payload["violations"][0]
        assert set(violation) == {"rule", "name", "path", "line", "col", "message"}
        assert violation["rule"] == "SC301"

    def test_select_restricts_rules(self, tmp_path):
        (tmp_path / "bad.py").write_text(textwrap.dedent(_VIOLATING))
        assert (
            main(
                [
                    str(tmp_path),
                    "--root",
                    str(tmp_path),
                    "--no-graphs",
                    "--select",
                    "SC201",
                ]
            )
            == 0
        )

    def test_unknown_rule_token_is_an_error(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x_ns = 1\n")
        code = main([str(tmp_path), "--root", str(tmp_path), "--select", "SC999"])
        assert code == 2
        assert "SC999" in capsys.readouterr().err

    def test_missing_path_is_an_error(self, tmp_path, capsys):
        code = main([str(tmp_path / "no-such-dir"), "--root", str(tmp_path)])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out
        assert "SC701" in out


# ------------------------------------------------------------ the real tree


def test_repository_is_clean():
    """The acceptance invariant: the checked-in tree passes its own linter."""
    repo_root = Path(__file__).resolve().parent.parent
    project = load_project(
        [
            repo_root / "src",
            repo_root / "tests",
            repo_root / "benchmarks",
            repo_root / "examples",
        ],
        root=repo_root,
    )
    violations = run_checks(project, list(ALL_RULES))
    assert violations == [], "\n".join(v.format() for v in violations)
    assert validate_presets() == []
