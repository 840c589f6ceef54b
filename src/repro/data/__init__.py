"""Input and trace generation: dense features, sparse IDs, embedding traces."""

from .criteo import (
    CriteoPreprocessor,
    CriteoRecord,
    criteo_model_config,
    parse_criteo_line,
    read_criteo,
    write_synthetic_criteo,
)
from .dataset import InputGenerator, generate_inputs
from .synthetic_ctr import CtrBatch, SyntheticCtrDataset
from .dense import dense_features
from .sparse import (
    SparseGenerator,
    TemporalReuseGenerator,
    UniformSparseGenerator,
    ZipfSparseGenerator,
)
from .traces import EmbeddingTrace, random_trace, synthetic_production_traces

__all__ = [
    "CriteoPreprocessor",
    "CriteoRecord",
    "criteo_model_config",
    "parse_criteo_line",
    "read_criteo",
    "write_synthetic_criteo",
    "CtrBatch",
    "SyntheticCtrDataset",
    "InputGenerator",
    "generate_inputs",
    "dense_features",
    "SparseGenerator",
    "TemporalReuseGenerator",
    "UniformSparseGenerator",
    "ZipfSparseGenerator",
    "EmbeddingTrace",
    "random_trace",
    "synthetic_production_traces",
]
