"""Experiment modules: one per paper figure/table, each with run()/render().

The registry maps experiment ids (as used in DESIGN.md / EXPERIMENTS.md) to
their modules, so harnesses can enumerate and regenerate everything:

    from repro.experiments import REGISTRY
    for exp_id, module in REGISTRY.items():
        print(module.render(module.run()))
"""

from . import (
    config_space,
    fig01_cycles,
    fig02_flops_bytes,
    fig04_operator_cycles,
    fig05_intensity_mpki,
    fig07_single_model,
    fig08_batch_sweep,
    fig09_colocation,
    fig10_latency_throughput,
    fig11_tail_latency,
    fig11x_faults,
    fig11y_overload,
    fig11z_domains,
    fig12_ncf_comparison,
    fig14_trace_locality,
    figfc_accelerator,
    figmm_multimodel,
    fignmp_near_memory,
    fleet_day,
    micro_takeaways,
    table1_model_params,
    table2_servers,
    table3_bottlenecks,
    whatif_memory,
)

REGISTRY = {
    "figure1": fig01_cycles,
    "figure2": fig02_flops_bytes,
    "figure4": fig04_operator_cycles,
    "figure5": fig05_intensity_mpki,
    "figure7": fig07_single_model,
    "figure8": fig08_batch_sweep,
    "figure9": fig09_colocation,
    "figure10": fig10_latency_throughput,
    "figure11": fig11_tail_latency,
    "figure11x": fig11x_faults,
    "figure11y": fig11y_overload,
    "figure11z": fig11z_domains,
    "figure12": fig12_ncf_comparison,
    "figure14": fig14_trace_locality,
    "multimodel": figmm_multimodel,
    "fignmp": fignmp_near_memory,
    "fleet": fleet_day,
    "table1": table1_model_params,
    "table2": table2_servers,
    "table3": table3_bottlenecks,
    "micro": micro_takeaways,
    "configspace": config_space,
    "whatif": whatif_memory,
    "fcaccel": figfc_accelerator,
}

__all__ = ["REGISTRY"] + [
    module.__name__.rpartition(".")[2] for module in REGISTRY.values()
]
