"""repro: reproduction of "The Architectural Implications of Facebook's
DNN-Based Personalized Recommendation" (HPCA 2020).

Public API highlights:

* :mod:`repro.config` -- model configuration space and RMC1/2/3 presets.
* :mod:`repro.core` -- executable DLRM/NCF models, operators, profiling.
* :mod:`repro.hw` -- Haswell/Broadwell/Skylake server timing simulator.
* :mod:`repro.serving` -- batching, co-location, SLA and fleet simulation.
* :mod:`repro.data` -- dense/sparse input generators and embedding traces.
* :mod:`repro.obs` -- request tracing, metrics registry, operator profiling.
* :mod:`repro.experiments` -- one module per paper figure/table.

``import repro`` loads none of them, so each entry point pays only for
the subpackages it imports.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
