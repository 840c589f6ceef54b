"""Model configuration: the tunable parameter space of Figure 13."""

from .model_config import (
    ConfigError,
    DTYPE_BYTES,
    EmbeddingTableConfig,
    MLPConfig,
    ModelConfig,
    uniform_tables,
)
from .normalization import NormalizedModelParams, normalize_table1
from .presets import (
    EMBEDDING_DIM,
    NCF,
    PRODUCTION_PRESETS,
    RMC1,
    RMC1_DOT,
    RMC1_LARGE,
    RMC1_SMALL,
    RMC2,
    RMC2_LARGE,
    RMC2_SMALL,
    RMC3,
    RMC3_LARGE,
    RMC3_SMALL,
    get_preset,
    scaled_for_execution,
)

__all__ = [
    "ConfigError",
    "DTYPE_BYTES",
    "EmbeddingTableConfig",
    "MLPConfig",
    "ModelConfig",
    "uniform_tables",
    "NormalizedModelParams",
    "normalize_table1",
    "EMBEDDING_DIM",
    "NCF",
    "PRODUCTION_PRESETS",
    "RMC1",
    "RMC1_DOT",
    "RMC1_LARGE",
    "RMC1_SMALL",
    "RMC2",
    "RMC2_LARGE",
    "RMC2_SMALL",
    "RMC3",
    "RMC3_LARGE",
    "RMC3_SMALL",
    "get_preset",
    "scaled_for_execution",
]
