"""Experiment modules: one per paper figure/table, each with run()/render().

``REGISTRY`` maps experiment ids (as used in DESIGN.md / EXPERIMENTS.md)
to module names, cheap experiments first so ``python -m repro all`` gives
fast feedback. A module is imported only when :func:`load` asks for it,
so running one experiment imports only what that experiment uses:

    from repro.experiments import REGISTRY, load
    for exp_id in REGISTRY:
        module = load(exp_id)
        print(module.render(module.run()))
"""

from __future__ import annotations

import importlib
from types import ModuleType

REGISTRY = {
    "table1": "table1_model_params",
    "table2": "table2_servers",
    "figure1": "fig01_cycles",
    "figure2": "fig02_flops_bytes",
    "figure4": "fig04_operator_cycles",
    "figure7": "fig07_single_model",
    "figure8": "fig08_batch_sweep",
    "figure9": "fig09_colocation",
    "figure10": "fig10_latency_throughput",
    "figure12": "fig12_ncf_comparison",
    "table3": "table3_bottlenecks",
    "micro": "micro_takeaways",
    "configspace": "config_space",
    "whatif": "whatif_memory",
    "fcaccel": "figfc_accelerator",
    "figure11": "fig11_tail_latency",
    "figure11x": "fig11x_faults",
    "figure11y": "fig11y_overload",
    "figure11z": "fig11z_domains",
    "figure14": "fig14_trace_locality",
    "fignmp": "fignmp_near_memory",
    "figure5": "fig05_intensity_mpki",
    "fleet": "fleet_day",
    "multimodel": "figmm_multimodel",
}


def load(exp_id: str) -> ModuleType:
    """Import and return the module of experiment ``exp_id``."""
    return importlib.import_module(f"{__name__}.{REGISTRY[exp_id]}")


__all__ = ["REGISTRY", "load"]
