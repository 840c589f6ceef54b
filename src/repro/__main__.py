"""Command-line entry point: regenerate any paper experiment.

Usage::

    python -m repro list                 # show available experiments
    python -m repro figure8              # run one and print its table
    python -m repro figure11x --json out.json   # + JSON result dump
    python -m repro all                  # run everything (slow ones last)
    python -m repro trace figure11x --out trace.json   # flight recorder

The ``trace`` subcommand re-runs an instrumented experiment with a live
:class:`~repro.obs.tracer.Tracer`, prints the flight-recorder report
(per-stage latency waterfall + top-k spans) and can export the Chrome
``trace_event`` JSON for ``chrome://tracing`` / Perfetto. ``--json`` dumps
the experiment's result — plus a metrics snapshot when the experiment
supports a registry — as a deterministic JSON document (CI uploads these
as build artifacts).
"""

from __future__ import annotations

import argparse
import inspect
import sys

from .experiments import REGISTRY

#: Experiments ordered cheap-first so `all` gives fast feedback.
_ORDERED = [
    "table1",
    "table2",
    "figure1",
    "figure2",
    "figure4",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure12",
    "table3",
    "micro",
    "configspace",
    "whatif",
    "fcaccel",
    "figure11",
    "figure11x",
    "figure11y",
    "figure11z",
    "figure14",
    "fignmp",
    "figure5",
    "fleet",
    "multimodel",
]


def _run_kwargs(module) -> set[str]:
    """Keyword names the experiment's ``run()`` accepts."""
    return set(inspect.signature(module.run).parameters)


def _run_one(exp_id: str, json_path: str | None = None) -> None:
    from .obs import MetricsRegistry, dumps_result

    module = REGISTRY[exp_id]
    kwargs = {}
    registry = None
    if json_path is not None and "metrics" in _run_kwargs(module):
        registry = MetricsRegistry()
        kwargs["metrics"] = registry
    # Deliberately no wall-clock timing here (SC904): every latency this
    # CLI prints is *simulated*; real execution time is the business of
    # benchmarks/ (simbench and the replay benches), and a cosmetic
    # elapsed display was the one host-dependent output in an otherwise
    # deterministic pipeline.
    result = module.run(**kwargs)
    print(f"\n### {exp_id}\n")
    print(module.render(result))
    if json_path is not None:
        snapshot = registry.snapshot() if registry is not None else None
        document = dumps_result(exp_id, result, snapshot)
        if json_path == "-":
            print(document)
        else:
            with open(json_path, "w", encoding="utf-8") as handle:
                handle.write(document + "\n")
            print(f"\nwrote {json_path}")


def _main_trace(argv: list[str]) -> int:
    """``python -m repro trace <experiment>`` — the flight recorder."""
    from .obs import Tracer, dumps_chrome, flight_report

    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Re-run an instrumented experiment with tracing on.",
    )
    parser.add_argument("experiment", help="experiment id (see `list`)")
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write Chrome trace_event JSON here (open in Perfetto)",
    )
    parser.add_argument(
        "--top", type=int, default=10, help="rows in the top-span table"
    )
    args = parser.parse_args(argv)

    module = REGISTRY.get(args.experiment)
    if module is None:
        print(f"unknown experiment {args.experiment!r}", file=sys.stderr)
        return 2
    if "tracer" not in _run_kwargs(module):
        traceable = ", ".join(
            exp_id
            for exp_id in _ORDERED
            if "tracer" in _run_kwargs(REGISTRY[exp_id])
        )
        print(
            f"{args.experiment!r} is not instrumented for tracing; "
            f"traceable experiments: {traceable}",
            file=sys.stderr,
        )
        return 2

    tracer = Tracer()
    result = module.run(tracer=tracer)
    print(module.render(result))
    print()
    print(flight_report(tracer, top_k=args.top))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dumps_chrome(tracer) + "\n")
        print(f"\nwrote {args.out} (load in chrome://tracing or Perfetto)")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "trace":
        return _main_trace(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see `list`), `all`, `validate`, `list`, or "
        "`trace <experiment>`",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        nargs="?",
        const="-",
        default=None,
        help="dump the result (and metrics snapshot, when the experiment "
        "supports one) as JSON to PATH, or stdout when PATH is omitted",
    )
    args = parser.parse_args(argv)

    if args.experiment == "validate":
        from .validation import render_report, validate

        checks = validate()
        print(render_report(checks))
        return 0 if all(c.passed for c in checks) else 1
    if args.experiment == "list":
        for exp_id in _ORDERED:
            doc = (REGISTRY[exp_id].__doc__ or "").strip().splitlines()[0]
            print(f"{exp_id:<10} {doc}")
        return 0
    if args.experiment == "all":
        for exp_id in _ORDERED:
            _run_one(exp_id, json_path=None)
        return 0
    if args.experiment not in REGISTRY:
        valid = ", ".join(_ORDERED)
        print(f"unknown experiment {args.experiment!r}; valid: {valid}, all, validate, list",
              file=sys.stderr)
        return 2
    _run_one(args.experiment, json_path=args.json_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
