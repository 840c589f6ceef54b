"""Memory-system optimization study for the embedding-dominated RMC2.

Walks the two remedies the paper's analysis motivates for models whose
latency lives in SparseLengthsSum:

1. int8-quantized tables — 4x smaller storage and gathered bytes, with the
   measured numerical error of the executable quantized operator;
2. near-memory SLS execution — end-to-end Amdahl gain.

Run:  python examples/memory_system_study.py
"""

import numpy as np

from repro.config import RMC2_SMALL
from repro.core.operators import (
    EmbeddingTable,
    QuantizedEmbeddingTable,
    QuantizedSparseLengthsSum,
    SparseBatch,
    SparseLengthsSum,
)
from repro.hw import BROADWELL, TimingModel
from repro.memory import NmpConfig, nmp_speedup


def quantization_study() -> None:
    print("1) int8 row-wise quantization (executable):")
    fp32 = EmbeddingTable(20_000, 32, rng=np.random.default_rng(1))
    q = QuantizedEmbeddingTable.quantize(fp32)
    sls = SparseLengthsSum("fp32", fp32, 80)
    qsls = QuantizedSparseLengthsSum("int8", q, 80)
    batch = SparseBatch.from_lists(
        [list(np.random.default_rng(2).integers(0, 20_000, 80)) for _ in range(8)]
    )
    err = np.abs(qsls.forward(batch) - sls.forward(batch)).max()
    print(f"   storage: {fp32.storage_bytes() / 1e6:.2f} MB -> "
          f"{q.storage_bytes() / 1e6:.2f} MB "
          f"({fp32.storage_bytes() / q.storage_bytes():.1f}x smaller)")
    print(f"   max pooled-output error: {err:.5f}")
    print(f"   production RMC2 tables: "
          f"{RMC2_SMALL.embedding_storage_bytes() / 1e9:.1f} GB -> "
          f"{RMC2_SMALL.embedding_storage_bytes() / 4e9:.1f} GB")


def nmp_study() -> None:
    print("\n2) near-memory SLS execution:")
    for speedup in (4, 8, 16):
        result = nmp_speedup(
            BROADWELL, RMC2_SMALL, 16, NmpConfig(sls_speedup=speedup)
        )
        print(f"   {speedup:>2}x SLS engine -> "
              f"{result.end_to_end_speedup:.2f}x end-to-end "
              f"(SLS share {100 * result.sls_share:.0f}%)")


def main() -> None:
    baseline = TimingModel(BROADWELL).model_latency(RMC2_SMALL, 16).total_seconds
    print(f"target: {RMC2_SMALL.name}, baseline Broadwell latency "
          f"{baseline * 1e3:.2f} ms at batch 16\n")
    quantization_study()
    nmp_study()


if __name__ == "__main__":
    main()
