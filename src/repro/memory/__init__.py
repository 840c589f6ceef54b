"""Memory-system studies: near-memory SLS processing (RecNMP)."""

from .near_memory import (
    AmdahlCrossCheck,
    NearMemorySystem,
    NmpConfig,
    NmpGeometry,
    NmpReplayResult,
    NmpSpeedupResult,
    amdahl_crosscheck,
    nmp_speedup,
)
from .nmp_native import nmp_native_available

__all__ = [
    "AmdahlCrossCheck",
    "NearMemorySystem",
    "NmpConfig",
    "NmpGeometry",
    "NmpReplayResult",
    "NmpSpeedupResult",
    "amdahl_crosscheck",
    "nmp_native_available",
    "nmp_speedup",
]
