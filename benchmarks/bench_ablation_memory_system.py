"""Ablation: memory-system optimizations for embedding-dominated models.

Two remedies the paper points to for RMC2-class models, evaluated
end-to-end: near-memory SLS execution and int8-quantized tables — the
optimization directions its open-source benchmark was released to enable.
"""

from dataclasses import replace

from conftest import emit

from repro.analysis import format_table
from repro.config import RMC2_SMALL
from repro.hw import BROADWELL, TimingModel
from repro.memory import NmpConfig, nmp_speedup


def run_study():
    timing = TimingModel(BROADWELL)
    baseline = timing.model_latency(RMC2_SMALL, 16).total_seconds

    nmp = nmp_speedup(BROADWELL, RMC2_SMALL, 16, NmpConfig(sls_speedup=8))

    int8_cfg = replace(RMC2_SMALL, dtype="int8")
    int8_latency_s = timing.model_latency(int8_cfg, 16).total_seconds

    return baseline, nmp, int8_cfg, int8_latency_s


def test_ablation_memory_system(benchmark):
    baseline, nmp, int8_cfg, int8_latency_s = benchmark(run_study)
    rows = [
        ["baseline fp32", f"{baseline * 1e3:.2f} ms", "1.00x", "-"],
        [
            "near-memory SLS (8x)",
            f"{nmp.accelerated_seconds * 1e3:.2f} ms",
            f"{nmp.end_to_end_speedup:.2f}x",
            "-",
        ],
        [
            "int8 tables",
            f"{int8_latency_s * 1e3:.2f} ms",
            f"{baseline / int8_latency_s:.2f}x",
            f"{int8_cfg.embedding_storage_bytes() / 1e9:.1f} GB (4x smaller)",
        ],
    ]
    emit(
        "Ablation: memory-system remedies for RMC2 (batch 16, Broadwell)",
        format_table(["configuration", "latency", "speedup", "capacity"], rows),
    )
    assert nmp.end_to_end_speedup > 2.0
    assert int8_cfg.embedding_storage_bytes() * 4 == RMC2_SMALL.embedding_storage_bytes()
