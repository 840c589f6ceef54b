"""In-memory span recorder and cProfile grouping for the simbench harness.

Spans are recorded by the benchmark's own code around each public call
into a layer of ``repro`` (no tracing inside ``src/``). Each span keeps
its name, host start/end, the index of its parent span, the operation id
shared by one operation's spans, and the counts recorded at the same
boundary. Spans stay in memory and are written out once, when the run
ends (:meth:`Recorder.to_jsonable`).

Self time is a span's duration minus the time its child spans cover. The
harness is single-threaded, so children nest strictly inside parents and
never overlap each other.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    """One recorded interval around a layer call."""

    name: str
    op_id: int
    parent: int
    start_s: float
    end_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    child_s: float = 0.0

    def count(self, **counts: float) -> None:
        """Attach counts measured at this span's boundary."""
        self.counts.update(counts)

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by child spans."""
        return (self.end_s - self.start_s) - self.child_s


class _NullSpan:
    """Stand-in returned while recording is off; discards everything."""

    def count(self, **counts: float) -> None:
        del counts

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _OpenSpan:
    """Context manager that closes one :class:`Span` on exit."""

    def __init__(self, recorder: "Recorder", index: int) -> None:
        self._recorder = recorder
        self._index = index

    def __enter__(self) -> Span:
        return self._recorder.spans[self._index]

    def __exit__(self, *exc: object) -> None:
        self._recorder._close(self._index)


class Recorder:
    """Collects spans when ``enabled``; a no-op recorder otherwise.

    ``op_id`` is set by the harness before each operation, so every span
    opened during that operation carries the same id.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op_id = -1
        self._stack: list[int] = []

    def span(self, name: str) -> "_OpenSpan | _NullSpan":
        """Open a span around a layer call (``with rec.span(...) as s:``)."""
        if not self.enabled:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, self.op_id, parent, time.perf_counter())
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return _OpenSpan(self, index)

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end_s = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end_s - span.start_s

    def mark(self) -> int:
        """Position to pass to :meth:`since` to select later spans."""
        return len(self.spans)

    def since(self, mark: int) -> list[Span]:
        """Spans opened after ``mark``."""
        return self.spans[mark:]

    def to_jsonable(self) -> list[dict]:
        """Every span as a plain dict, in opening order."""
        return [
            {
                "name": s.name,
                "op": s.op_id,
                "parent": s.parent,
                "start_s": s.start_s,
                "end_s": s.end_s,
                "self_s": s.self_s,
                "counts": s.counts,
            }
            for s in self.spans
        ]


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time of ``spans``, keyed by span name."""
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + span.self_s
    return out


def counts_by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Summed boundary counts of ``spans``, keyed by span name."""
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        bucket = out.setdefault(span.name, {})
        for key, value in span.counts.items():
            bucket[key] = bucket.get(key, 0.0) + value
    return out


# ------------------------------------------------------------ cProfile pass

#: Modules that wrap the self-compiled C kernels through ``ctypes``. A
#: ``ctypes`` call is not a profiled C function, so the kernel's time is
#: charged to the Python wrapper that makes it; those wrappers' self time
#: is reported as ``native``.
NATIVE_MODULES = (
    "repro.hw._native",
    "repro.memory.nmp_native",
    "repro.serving._des_native",
)


def _group_of(filename: str, funcname: str, package_dir: str) -> str:
    """Bucket of one profiled function: a repro module, numpy or other."""
    path = filename.replace("\\", "/")
    if path.startswith(package_dir) and path.endswith(".py"):
        tail = path[len(package_dir) : -len(".py")]
        module = "repro." + tail.replace("/", ".")
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        return "native" if module in NATIVE_MODULES else module
    if "/numpy/" in path or "numpy" in funcname:
        return "numpy"
    return "other"


def profile_self_time(func) -> dict[str, float]:
    """Run ``func()`` under cProfile; self seconds by module bucket.

    Buckets are ``repro.<module>`` names, ``numpy`` (numpy's Python
    code and its C methods and ufuncs), ``native`` (see
    :data:`NATIVE_MODULES`) and ``other`` (the standard library,
    builtins and the benchmark's own code).
    """
    import repro

    package_dir = str(Path(repro.__file__).resolve().parent).replace("\\", "/") + "/"
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        func()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    out: dict[str, float] = {}
    for (filename, _line, funcname), row in stats.stats.items():  # type: ignore[attr-defined]
        tottime_s = row[2]
        group = _group_of(filename, funcname, package_dir)
        out[group] = out.get(group, 0.0) + tottime_s
    return out
