"""Server-architecture simulator: Table-II machines, caches, SIMD, timing."""

from .accelerator import (
    AcceleratorConfig,
    AccelerationResult,
    accelerate_fc,
    speedup_sweep,
)
from .cache import CacheStats, SetAssociativeCache
from .colocation import ColocationState, ContentionModel, RUN_ALONE
from .hierarchy import CacheHierarchy, HierarchyStats
from .server import (
    ALL_SERVERS,
    AVX2,
    AVX512,
    BROADWELL,
    GB,
    HASWELL,
    KB,
    MB,
    SERVERS_BY_NAME,
    ServerSpec,
    SimdSpec,
    SKYLAKE,
    get_server,
)
from .simd import (
    effective_gflops,
    packed_simd_fraction_of_theoretical,
    packed_simd_throughput_ratio,
    utilization,
)
from .timing import ModelLatency, OperatorTime, TimingModel
from .trace_integration import (
    TraceDrivenResult,
    measure_trace_hit_ratio,
    trace_driven_latency,
)

__all__ = [
    "AcceleratorConfig",
    "AccelerationResult",
    "accelerate_fc",
    "speedup_sweep",
    "CacheStats",
    "SetAssociativeCache",
    "ColocationState",
    "ContentionModel",
    "RUN_ALONE",
    "CacheHierarchy",
    "HierarchyStats",
    "ALL_SERVERS",
    "AVX2",
    "AVX512",
    "BROADWELL",
    "GB",
    "HASWELL",
    "KB",
    "MB",
    "SERVERS_BY_NAME",
    "ServerSpec",
    "SimdSpec",
    "SKYLAKE",
    "get_server",
    "effective_gflops",
    "packed_simd_fraction_of_theoretical",
    "packed_simd_throughput_ratio",
    "utilization",
    "ModelLatency",
    "OperatorTime",
    "TimingModel",
    "TraceDrivenResult",
    "measure_trace_hit_ratio",
    "trace_driven_latency",
]
