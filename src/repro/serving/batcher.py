"""Query batching.

Production systems improve throughput by batching items before inference
(Section V): batching raises the compute density of FC layers (filling wide
SIMD units) at the cost of per-item queueing delay. :class:`Batcher` is a
size/timeout batcher over a query stream. It queues without bound:
overload protection lives in one place,
:class:`~repro.serving.overload.AdmissionPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .loadgen import Query


@dataclass(frozen=True)
class Batch:
    """A group of queries dispatched together.

    Attributes:
        queries: the member queries.
        formed_at_s: time the batch was dispatched.
    """

    queries: tuple[Query, ...]
    formed_at_s: float

    @property
    def num_items(self) -> int:
        """Total items across member queries (the inference batch size)."""
        return sum(q.num_items for q in self.queries)

    @property
    def oldest_arrival_s(self) -> float:
        """Arrival time of the earliest member query."""
        return min(q.arrival_s for q in self.queries)


@dataclass
class Batcher:
    """Size/timeout batching policy.

    A batch is dispatched when it reaches ``max_items`` or when the oldest
    queued query has waited ``max_wait_s``.

    Attributes:
        max_items: dispatch threshold on accumulated items.
        max_wait_s: dispatch threshold on the oldest query's wait.
    """

    max_items: int = 32
    max_wait_s: float = 0.001
    _pending: list[Query] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.max_items < 1:
            raise ValueError("max_items must be positive")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")

    @property
    def pending_items(self) -> int:
        """Items currently queued."""
        return sum(q.num_items for q in self._pending)

    def offer(self, query: Query) -> Batch | None:
        """Queue a query; returns a batch if the size threshold is reached."""
        self._pending.append(query)
        if self.pending_items >= self.max_items:
            return self._dispatch(query.arrival_s)
        return None

    def poll(self, now_s: float) -> Batch | None:
        """Dispatch on timeout: returns a batch if the oldest query expired."""
        if not self._pending:
            return None
        oldest = min(q.arrival_s for q in self._pending)
        if now_s - oldest >= self.max_wait_s:
            return self._dispatch(now_s)
        return None

    def flush(self, now_s: float) -> Batch | None:
        """Dispatch whatever is queued (end of stream)."""
        if not self._pending:
            return None
        return self._dispatch(now_s)

    def _dispatch(self, now_s: float) -> Batch:
        batch = Batch(queries=tuple(self._pending), formed_at_s=now_s)
        self._pending.clear()
        return batch


def batch_stream(
    queries: list[Query], max_items: int, max_wait_s: float
) -> list[Batch]:
    """Batch an entire (time-ordered) query stream offline."""
    batcher = Batcher(max_items=max_items, max_wait_s=max_wait_s)
    batches: list[Batch] = []
    for query in sorted(queries, key=lambda q: q.arrival_s):
        timed_out = batcher.poll(query.arrival_s)
        if timed_out is not None:
            batches.append(timed_out)
        formed = batcher.offer(query)
        if formed is not None:
            batches.append(formed)
    final_time = queries[-1].arrival_s + max_wait_s if queries else 0.0
    tail = batcher.flush(final_time)
    if tail is not None:
        batches.append(tail)
    return batches
