"""Replica-pick policies for routing queries across replicated servers.

Data-center front-ends spread queries across many model replicas; the
routing policy shapes tail latency long before micro-architecture does.
Three classic policies:

* round-robin — cyclic, state-free;
* random — uniform choice;
* JSQ(d) — "power of d choices": sample d machines, pick the shortest
  queue; ``d=2`` captures most of join-shortest-queue's benefit at a
  fraction of its probing cost.

:func:`pick_machine` is the executable spec of one pick and
:func:`replica_picker` its O(1) form. The fleet simulator that uses them
is :class:`~repro.serving.faults.ResilientRouter`: its reference engine
picks through the spec, its vectorized engine through the O(1) form.
:data:`SERVICE_NOISE_SIGMA` is the lognormal service-time noise it shares
with :class:`~repro.serving.multimodel.MultiModelRouter`.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

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

    The pick of :class:`repro.serving.faults.ResilientRouter`'s reference
    engine, which restricts ``candidates`` to the replicas its health
    checks still admit.

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
