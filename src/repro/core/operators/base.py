"""Operator abstractions shared by every layer type.

Each operator knows how to (1) execute on numpy arrays, (2) report its
analytical cost — FLOPs and bytes moved — for a given batch size, and
(3) emit a memory *address trace* for the server cache simulator
(:mod:`repro.hw`). Costs and traces are what the paper's characterization
is built on; execution is used by the tests, the examples and training.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# Operator categories, matching the paper's Figure 4 x-axis.
OP_FC = "FC"
OP_SLS = "SLS"
OP_CONCAT = "Concat"
OP_CONV = "Conv"
OP_BATCH_MATMUL = "BatchMM"
OP_ACTIVATION = "Activation"
OP_RECURRENT = "Recurrent"
OP_OTHER = "Other"

ALL_OP_TYPES = (
    OP_FC,
    OP_SLS,
    OP_CONCAT,
    OP_CONV,
    OP_BATCH_MATMUL,
    OP_ACTIVATION,
    OP_RECURRENT,
    OP_OTHER,
)


@dataclass(frozen=True)
class OperatorCost:
    """Analytical cost of one operator invocation.

    Attributes:
        flops: floating-point operations (a multiply-accumulate counts as 2).
        bytes_read: bytes of parameters + activations read.
        bytes_written: bytes of activations produced.
    """

    flops: int
    bytes_read: int
    bytes_written: int

    @property
    def total_bytes(self) -> int:
        """Total data movement."""
        return self.bytes_read + self.bytes_written

    @property
    def operational_intensity(self) -> float:
        """FLOPs per byte read — the Figure 5 compute-density metric."""
        if self.bytes_read == 0:
            return float("inf")
        return self.flops / self.bytes_read

    def __add__(self, other: "OperatorCost") -> "OperatorCost":
        return OperatorCost(
            flops=self.flops + other.flops,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
        )


ZERO_COST = OperatorCost(flops=0, bytes_read=0, bytes_written=0)


def sum_costs(costs: Iterable[OperatorCost]) -> OperatorCost:
    """Sum a sequence of costs (returns a zero cost for an empty input)."""
    total = ZERO_COST
    for cost in costs:
        total = total + cost
    return total


@dataclass(frozen=True)
class MemoryAccess:
    """One logical memory access in an operator's address trace.

    Addresses are byte offsets in a flat per-model address space; the cache
    simulator only cares about their locality structure, not their absolute
    placement.

    Attributes:
        address: starting byte address.
        size: bytes touched contiguously from ``address``.
        is_write: True for stores.
    """

    address: int
    size: int
    is_write: bool = False


class Operator(abc.ABC):
    """Base class for all operators.

    Subclasses set :attr:`op_type` to one of the Figure-4 categories and
    implement :meth:`forward`, :meth:`cost` and (when their access pattern
    matters to the paper's analysis) :meth:`address_trace`.
    """

    op_type: str = OP_OTHER

    def __init__(self, name: str) -> None:
        self.name = name

    @abc.abstractmethod
    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        """Execute the operator on numpy inputs."""

    @abc.abstractmethod
    def cost(self, batch_size: int) -> OperatorCost:
        """Analytical cost for one invocation at ``batch_size``."""

    def parameter_bytes(self) -> int:
        """Bytes of trainable parameters held by this operator."""
        return 0

    #: Base byte address where operator activations live; successive
    #: invocations use fresh regions (streaming inputs do not repeat), which
    #: is what keeps dense operators' misses compulsory-on-inputs-only.
    _ACTIVATION_REGION = 1 << 34

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)

    def _fresh_activation_base(self, bytes_needed: int) -> int:
        epoch = getattr(self, "_trace_epoch", 0)
        self._trace_epoch = epoch + 1
        region = max(bytes_needed, 1)
        return self._ACTIVATION_REGION + epoch * (region + 4096)

    def address_trace(
        self, batch_size: int, rng: np.random.Generator | None = None
    ) -> Iterator[MemoryAccess]:
        """Yield the operator's memory accesses for one invocation.

        The default trace is a streaming read over the operator's
        parameters (reused across invocations → cache-resident once warm)
        plus a read/write pass over a *fresh* activation region (new inputs
        arrive every invocation → compulsory misses). Operators with
        distinctive patterns (SLS gathers, recurrent weight re-streaming)
        override this.
        """
        del rng
        params = self.parameter_bytes()
        if params:
            yield MemoryAccess(address=0, size=params)
        act_bytes = self.cost(batch_size).bytes_written
        if act_bytes:
            base = self._fresh_activation_base(2 * act_bytes)
            yield MemoryAccess(address=base, size=act_bytes)
            yield MemoryAccess(address=base + act_bytes, size=act_bytes, is_write=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
