"""FC-accelerator study (Takeaway 2): end-to-end gain per model class.

The paper argues that accelerating matrix multiplication "alone will
provide limited benefits on end-to-end performance" for recommendation,
because the FC share of inference time ranges from ~30% (RMC1 at batch)
to ~95% (RMC3). This experiment offloads FC/BatchMatMul to accelerators
2x, 10x and 100x faster than the host (:mod:`repro.hw.accelerator`) and
reports the end-to-end speedup of each model class next to its Amdahl
limit: the embedding-dominated RMC2 barely moves even at 100x, while the
compute-bound RMC3 gains nearly its full limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.tables import format_table
from ..config.presets import RMC1_SMALL, RMC2_SMALL, RMC3_SMALL
from ..hw.accelerator import AccelerationResult, speedup_sweep
from ..hw.server import BROADWELL

#: The sweep: Broadwell at batch 16, three accelerator strengths.
BATCH_SIZE = 16
FC_SPEEDUPS = (2.0, 10.0, 100.0)


@dataclass(frozen=True)
class FcAccelResult:
    """One accelerator sweep per model, in ``fc_speedups`` order."""

    server_name: str
    batch_size: int
    fc_speedups: tuple[float, ...]
    sweeps: dict[str, list[AccelerationResult]]

    def speedup(self, model_name: str, fc_speedup: float) -> float:
        """End-to-end speedup of one model at one accelerator strength."""
        index = self.fc_speedups.index(fc_speedup)
        return self.sweeps[model_name][index].end_to_end_speedup


def run() -> FcAccelResult:
    """Sweep FC-accelerator strength over the three model classes."""
    return FcAccelResult(
        server_name=BROADWELL.name,
        batch_size=BATCH_SIZE,
        fc_speedups=FC_SPEEDUPS,
        sweeps=speedup_sweep(
            BROADWELL,
            [RMC1_SMALL, RMC2_SMALL, RMC3_SMALL],
            BATCH_SIZE,
            list(FC_SPEEDUPS),
        ),
    )


def render(result: FcAccelResult) -> str:
    """Text table: end-to-end speedup per accelerator strength."""
    rows = []
    for name, sweep in result.sweeps.items():
        row = [name, f"{100 * sweep[0].fc_share:.0f}%"]
        row += [f"{r.end_to_end_speedup:.2f}x" for r in sweep]
        row.append(f"{sweep[0].amdahl_limit:.2f}x")
        rows.append(row)
    return format_table(
        ["model", "FC share"]
        + [f"{s:g}x FC" for s in result.fc_speedups]
        + ["Amdahl limit"],
        rows,
        title=(
            f"FC accelerator end-to-end speedup (batch {result.batch_size}, "
            f"{result.server_name})"
        ),
    )
