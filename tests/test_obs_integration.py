"""End-to-end tests for the observability layer.

The two load-bearing guarantees:

* **determinism** — a traced, seeded run exports byte-identical Chrome
  JSON every time;
* **zero perturbation** — running with tracing/metrics off (the default)
  produces bit-identical results to never having instrumented at all.
"""

from __future__ import annotations

import json

from repro.config import presets
from repro.experiments import fig11x_faults
from repro.hw.server import BROADWELL
from repro.obs import (
    MetricsRegistry,
    Tracer,
    dumps_chrome,
    flight_report,
    to_chrome,
    validate_chrome,
)
from repro.serving.simulator import ServingSimulator
from repro.__main__ import main

_FIG11X_KWARGS = dict(num_machines=4, duration_s=0.4, seed=11)


def _traced_fig11x():
    tracer = Tracer()
    metrics = MetricsRegistry()
    result = fig11x_faults.run(tracer=tracer, metrics=metrics, **_FIG11X_KWARGS)
    return tracer, metrics, result


def _policy_fingerprint(result):
    return {
        name: (
            outcome.summary.p50,
            outcome.summary.p99,
            outcome.summary.p999,
            outcome.stats.offered,
            outcome.stats.completed,
            outcome.stats.failed,
            outcome.stats.retries,
            outcome.stats.hedges,
        )
        for name, outcome in result.outcomes.items()
    }


class TestFig11xTracing:
    def test_traced_runs_export_identical_chrome_json(self):
        tracer_a, _, _ = _traced_fig11x()
        tracer_b, _, _ = _traced_fig11x()
        dump_a = dumps_chrome(tracer_a)
        assert dump_a == dumps_chrome(tracer_b)
        assert len(dump_a) > 1000  # a real timeline, not an empty shell

    def test_traced_export_validates(self):
        tracer, _, _ = _traced_fig11x()
        payload = to_chrome(tracer)
        assert validate_chrome(payload) == []
        # Round-trips through JSON text unchanged.
        assert validate_chrome(json.loads(dumps_chrome(tracer))) == []

    def test_tracing_off_is_bit_identical(self):
        _, _, traced = _traced_fig11x()
        plain = fig11x_faults.run(**_FIG11X_KWARGS)
        assert _policy_fingerprint(plain) == _policy_fingerprint(traced)

    def test_metrics_cover_every_policy(self):
        _, metrics, result = _traced_fig11x()
        payload = metrics.snapshot().to_jsonable()
        for name, outcome in result.outcomes.items():
            offered = payload["counters"][f"serving.router.offered{{policy={name}}}"]
            assert offered == outcome.stats.offered
            latency = payload["histograms"][f"serving.router.latency_s{{policy={name}}}"]
            assert latency["count"] == outcome.stats.completed

    def test_flight_report_summarizes_router_stages(self):
        tracer, _, _ = _traced_fig11x()
        report = flight_report(tracer, top_k=5)
        assert "serving.router.request" in report
        assert "serving.router.attempt" in report


class TestSimulatorTracing:
    _KWARGS = dict(
        batch_size=4, num_instances=2, per_instance_qps=200, seed=3
    )

    def _run(self, tracer=None):
        sim = ServingSimulator(
            BROADWELL, presets.RMC1_SMALL, tracer=tracer, **self._KWARGS
        )
        return sim.run(0.05)

    def test_traced_runs_are_deterministic(self):
        tracer_a, tracer_b = Tracer(), Tracer()
        self._run(tracer_a)
        self._run(tracer_b)
        assert dumps_chrome(tracer_a) == dumps_chrome(tracer_b)
        assert validate_chrome(to_chrome(tracer_a)) == []

    def test_tracing_off_is_bit_identical(self):
        tracer = Tracer()
        traced = self._run(tracer)
        plain = self._run()
        assert plain.records == traced.records
        assert tracer.spans  # the traced run actually recorded something


class TestCli:
    def test_json_flag_writes_deterministic_document(self, tmp_path, capsys):
        out = tmp_path / "table1.json"
        assert main(["table1", "--json", str(out)]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        assert document["experiment"] == "table1"
        assert "result" in document

    def test_json_flag_defaults_to_stdout(self, capsys):
        assert main(["table1", "--json"]) == 0
        stdout = capsys.readouterr().out
        assert '"experiment": "table1"' in stdout

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["not-an-experiment"]) == 2
        capsys.readouterr()

    def test_trace_rejects_unknown_experiment(self, capsys):
        assert main(["trace", "not-an-experiment"]) == 2
        capsys.readouterr()

    def test_trace_rejects_uninstrumented_experiment(self, capsys):
        assert main(["trace", "table1"]) == 2
        err = capsys.readouterr().err
        assert "figure11x" in err  # points at the traceable ones
