"""Request routing across replicated inference servers (queueing DES).

Data-center front-ends spread queries across many model replicas; the
routing policy shapes tail latency long before micro-architecture does.
This simulator complements :mod:`repro.serving.simulator` (contention on
one machine) with the fleet view: M machines serving one model, Poisson
query arrivals, and three classic policies —

* round-robin — cyclic, state-free;
* random — uniform choice;
* JSQ(d) — "power of d choices": sample d machines, pick the shortest
  queue; ``d=2`` captures most of join-shortest-queue's benefit at a
  fraction of its probing cost.

Service times come from the timing model plus lognormal noise, so the
policies are compared under realistic variability. Queues here are
unbounded; admission control and shedding live in
:class:`~repro.serving.overload.AdmissionPolicy`, which
:class:`~repro.serving.faults.ResilientRouter` applies on the same routing
policies.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..analysis.distributions import LatencySummary, summarize
from ..config.model_config import ModelConfig
from ..hw.server import ServerSpec
from ..hw.timing import TimingModel

POLICIES = ("round_robin", "random", "jsq2")

#: Multiplicative service-time noise (lognormal sigma).
SERVICE_NOISE_SIGMA = 0.10


def pick_machine(
    policy: str,
    rng: np.random.Generator,
    queue_depth: list[int],
    rr_state: list[int],
    candidates: list[int] | None = None,
) -> int:
    """Select a target machine under one of :data:`POLICIES`.

    Shared by :class:`RequestRouter` (happy path) and
    :class:`repro.serving.faults.ResilientRouter` (which restricts
    ``candidates`` to replicas its health checks still admit).

    Args:
        policy: one of :data:`POLICIES`.
        rng: the caller's seeded generator.
        queue_depth: current depth per machine (indexed by machine id).
        rr_state: single-element mutable round-robin cursor.
        candidates: admissible machine ids; ``None`` means all.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; valid: {POLICIES}")
    pool = list(range(len(queue_depth))) if candidates is None else list(candidates)
    if not pool:
        raise ValueError("no candidate machines to route to")
    if policy == "round_robin":
        machine = pool[rr_state[0] % len(pool)]
        rr_state[0] += 1
        return machine
    if policy == "random":
        return int(pool[int(rng.integers(len(pool)))])
    # jsq2: sample two distinct candidates, pick the shorter queue.
    if len(pool) == 1:
        return pool[0]
    a, b = rng.choice(len(pool), size=2, replace=False)
    a, b = pool[int(a)], pool[int(b)]
    return a if queue_depth[a] <= queue_depth[b] else b


def replica_picker(
    policy: str, rng: np.random.Generator
) -> Callable[[list[int], list[int]], int]:
    """A ``pick(candidates, queue_depth)`` that draws exactly as :func:`pick_machine`.

    :func:`pick_machine` is the spec; this is its O(1) form for hot event
    loops. ``jsq2`` and ``random`` read raw 32-bit words from ``rng``'s
    bit generator (``rng.bit_generator.ctypes.next_uint32``) and mirror
    numpy's C paths, so the stream position after every pick is the one
    the spec leaves:

    * ``draw(hi)`` on ``[0, hi]`` is ``random_bounded_uint64`` without a
      mask for ``0 <= hi < 2**32 - 1``: Lemire's 32-bit multiply with its
      rejection loop (``buffered_bounded_lemire_uint32``). ``hi == 0``
      returns 0 and consumes no word.
    * ``random`` is ``rng.integers(n)``, i.e. ``draw(n - 1)``.
    * ``jsq2`` is ``rng.choice(n, size=2, replace=False)``. For two
      samples numpy always takes Floyd's branch: the tail-shuffle branch
      needs both ``n > 10000`` and ``2 > n // 50``, which cannot hold.
      Floyd draws ``i = draw(n - 2)`` then ``j = draw(n - 1)``, replaced
      by ``n - 1`` if it equals ``i``; ``_shuffle_int`` then swaps the
      pair when ``draw(1) == 0``.

    ``round_robin`` keeps a cursor that starts at 0, like ``rr_state``.
    ``candidates`` must be non-empty and is not copied.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; valid: {POLICIES}")
    if policy == "round_robin":
        cursor = 0

        def pick_round_robin(candidates: list[int], queue_depth: list[int]) -> int:
            nonlocal cursor
            machine = candidates[cursor % len(candidates)]
            cursor += 1
            return machine

        return pick_round_robin

    # ``state`` is a raw pointer into the bit generator, so each picker
    # holds the bit generator to keep that memory alive.
    bit_generator = rng.bit_generator
    next_uint32 = bit_generator.ctypes.next_uint32
    state = bit_generator.ctypes.state

    def draw(hi: int) -> int:
        if hi == 0:
            return 0
        span = hi + 1
        m = next_uint32(state) * span
        leftover = m & 0xFFFFFFFF
        if leftover < span:
            threshold = (0xFFFFFFFF - hi) % span
            while leftover < threshold:
                m = next_uint32(state) * span
                leftover = m & 0xFFFFFFFF
        return m >> 32

    if policy == "random":

        def pick_random(candidates: list[int], queue_depth: list[int]) -> int:
            return candidates[draw(len(candidates) - 1)]

        pick_random.bit_generator = bit_generator
        return pick_random

    def pick_jsq2(candidates: list[int], queue_depth: list[int]) -> int:
        n = len(candidates)
        if n == 1:
            return candidates[0]
        i = draw(n - 2)
        j = draw(n - 1)
        if j == i:
            j = n - 1
        if draw(1) == 0:
            i, j = j, i
        a, b = candidates[i], candidates[j]
        return a if queue_depth[a] <= queue_depth[b] else b

    pick_jsq2.bit_generator = bit_generator
    return pick_jsq2


@dataclass(frozen=True)
class RoutingResult:
    """Outcome of one routing simulation.

    ``max_queue_depth`` is the deepest per-machine backlog observed.
    """

    policy: str
    num_machines: int
    offered_qps: float
    latencies_s: np.ndarray
    duration_s: float
    max_queue_depth: int = 0

    def summary(self) -> LatencySummary:
        """Per-query latency percentiles."""
        return summarize(self.latencies_s)

    def throughput_qps(self) -> float:
        """Completed queries per second."""
        return len(self.latencies_s) / self.duration_s


class RequestRouter:
    """Simulates one routing policy over replicated servers.

    Args:
        server: machine generation (all replicas identical).
        config: the model each replica serves.
        batch_size: items per query (each query is one inference).
        num_machines: replica count.
        policy: one of :data:`POLICIES`.
        seed: RNG seed.
    """

    def __init__(
        self,
        server: ServerSpec,
        config: ModelConfig,
        batch_size: int,
        num_machines: int,
        policy: str = "jsq2",
        seed: int = 0,
    ) -> None:
        if num_machines < 1:
            raise ValueError("need at least one machine")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; valid: {POLICIES}")
        self.server = server
        self.config = config
        self.batch_size = batch_size
        self.num_machines = num_machines
        self.policy = policy
        self._rng = np.random.default_rng(seed)
        self._base_service = TimingModel(server).model_latency(
            config, batch_size
        ).total_seconds

    def mean_service_s(self) -> float:
        """Mean per-query service time."""
        return self._base_service

    def max_stable_qps(self) -> float:
        """Arrival rate at 100% utilization (stability boundary)."""
        return self.num_machines / self._base_service

    def _pick_machine(self, queue_depth: list[int], rr_state: list[int]) -> int:
        return pick_machine(self.policy, self._rng, queue_depth, rr_state)

    def run(self, offered_qps: float, duration_s: float = 1.0) -> RoutingResult:
        """Simulate ``duration_s`` of Poisson arrivals at ``offered_qps``."""
        if offered_qps <= 0 or duration_s <= 0:
            raise ValueError("rate and duration must be positive")
        rng = self._rng
        arrivals = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / offered_qps))
            if t >= duration_s:
                break
            arrivals.append(t)

        queue_depth = [0] * self.num_machines
        free_at = [0.0] * self.num_machines
        rr_state = [0]
        # Event queue of completions: (finish_time, seq, machine).
        completions: list[tuple[float, int, int]] = []
        latencies: list[float] = []
        seq = 0
        max_queue_depth = 0
        for arrival in arrivals:
            # Drain completions before this arrival to keep queues current.
            while completions and completions[0][0] <= arrival:
                _, _, machine = heapq.heappop(completions)
                queue_depth[machine] -= 1
            machine = self._pick_machine(queue_depth, rr_state)
            sigma = SERVICE_NOISE_SIGMA
            service = self._base_service * float(
                rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma)
            )
            start = max(arrival, free_at[machine])
            finish = start + service
            free_at[machine] = finish
            queue_depth[machine] += 1
            if queue_depth[machine] > max_queue_depth:
                max_queue_depth = queue_depth[machine]
            heapq.heappush(completions, (finish, seq, machine))
            seq += 1
            latencies.append(finish - arrival)

        return RoutingResult(
            policy=self.policy,
            num_machines=self.num_machines,
            offered_qps=offered_qps,
            latencies_s=np.asarray(latencies),
            duration_s=duration_s,
            max_queue_depth=max_queue_depth,
        )


def compare_policies(
    server: ServerSpec,
    config: ModelConfig,
    batch_size: int,
    num_machines: int,
    utilization: float = 0.8,
    duration_s: float = 2.0,
    seed: int = 0,
) -> dict[str, RoutingResult]:
    """Run every policy at the same offered load (fraction of capacity)."""
    if not 0 < utilization < 1:
        raise ValueError("utilization must be in (0, 1)")
    probe = RequestRouter(server, config, batch_size, num_machines, seed=seed)
    qps = utilization * probe.max_stable_qps()
    out = {}
    for policy in POLICIES:
        router = RequestRouter(
            server, config, batch_size, num_machines, policy=policy, seed=seed
        )
        out[policy] = router.run(qps, duration_s)
    return out
