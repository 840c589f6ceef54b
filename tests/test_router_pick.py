"""Contract of ``replica_picker``: numpy's own draws, from the raw bit stream.

``replica_picker`` reads 32-bit words straight from the generator's bit
generator instead of calling ``Generator.choice``/``Generator.integers``.
These tests hold it to the numpy calls it replaces, word for word: the
same picks, interleaved with other draws on the same stream, and the same
final ``bit_generator.state``. If a numpy release changes how ``choice``
or ``integers`` consume the stream, this file fails first.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RMC1_SMALL
from repro.hw import BROADWELL
from repro.serving import (
    AdmissionPolicy,
    OverloadConfig,
    ResiliencePolicy,
    ResilientRouter,
    fault_storm,
)
from repro.serving.router import POLICIES, pick_machine, replica_picker


class ConstDepth:
    """Every machine has the same queue depth, however large the fleet."""

    def __getitem__(self, machine: int) -> int:
        return 0


def jsq2_pickers(seed: int):
    """Three same-seeded jsq2 pickers whose picks reveal the sampled pair.

    With equal depths jsq2 returns the first sampled candidate; with
    depths rising in the machine id it returns the smaller id, and with
    falling depths the larger one.
    """
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    picks = [replica_picker("jsq2", rng) for rng in rngs]
    return rngs, picks


def reveal_pair(picks, candidates, n: int) -> tuple[int, int]:
    first = picks[0](candidates, ConstDepth())
    low = picks[1](candidates, range(n))
    high = picks[2](candidates, range(n, 0, -1))
    assert first in (low, high)
    return first, low + high - first


ops = st.lists(
    st.one_of(
        st.tuples(st.just("jsq2"), st.integers(1, 5000)),
        st.tuples(st.just("random"), st.integers(1, 5000)),
        st.tuples(st.just("lognormal"), st.floats(0.01, 1.0)),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), script=ops)
def test_picks_match_numpy_with_interleaved_draws(seed, script):
    ref = np.random.default_rng(seed)
    rngs, picks = jsq2_pickers(seed)
    random_picks = [replica_picker("random", rng) for rng in rngs]
    for kind, arg in script:
        if kind == "lognormal":
            sigma = arg
            want = ref.lognormal(-0.5 * sigma**2, sigma)
            for rng in rngs:
                assert rng.lognormal(-0.5 * sigma**2, sigma) == want
            continue
        n = arg
        candidates = list(range(n))
        if kind == "random":
            want = int(ref.integers(n))
            for pick in random_picks:
                assert pick(candidates, ConstDepth()) == want
        elif n == 1:
            # The spec returns the lone candidate without drawing.
            for pick in picks:
                assert pick(candidates, [0]) == 0
        else:
            want_pair = tuple(int(x) for x in ref.choice(n, 2, replace=False))
            assert reveal_pair(picks, candidates, n) == want_pair
    for rng in rngs:
        assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(2**31, 2**32 - 2), min_size=1, max_size=40),
)
def test_rejection_range_matches_numpy(seed, sizes):
    # Near 2**31 about half of Lemire's first words are rejected, so the
    # retry loop runs on most draws.
    ref = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    pick = replica_picker("random", rng)
    jsq_rngs, jsq_picks = jsq2_pickers(seed)
    jsq_ref = np.random.default_rng(seed)
    for n in sizes:
        assert pick(range(n), ConstDepth()) == int(ref.integers(n))
        want_pair = tuple(int(x) for x in jsq_ref.choice(n, 2, replace=False))
        assert reveal_pair(jsq_picks, range(n), n) == want_pair
    assert rng.bit_generator.state == ref.bit_generator.state
    for jsq_rng in jsq_rngs:
        assert jsq_rng.bit_generator.state == jsq_ref.bit_generator.state


def test_zero_range_draw_consumes_nothing():
    # Regression pin: on two candidates Floyd's first draw is on [0, 0],
    # which numpy answers without reading a word. Reading one anyway
    # shifts every later draw.
    ref = np.random.default_rng(7)
    rngs, picks = jsq2_pickers(7)
    for _ in range(200):
        want_pair = tuple(int(x) for x in ref.choice(2, 2, replace=False))
        assert reveal_pair(picks, [0, 1], 2) == want_pair
    for rng in rngs:
        assert rng.bit_generator.state == ref.bit_generator.state

    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    assert replica_picker("random", rng)([5], ConstDepth()) == 5
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("policy", POLICIES)
def test_picks_equal_the_spec(policy):
    spec_rng = np.random.default_rng(3)
    rng = np.random.default_rng(3)
    pick = replica_picker(policy, rng)
    rr_state = [0]
    shape = np.random.default_rng(4)
    for _ in range(500):
        candidates = sorted(
            shape.choice(64, int(shape.integers(1, 65)), replace=False).tolist()
        )
        depth = shape.integers(0, 4, size=64).tolist()
        want = pick_machine(policy, spec_rng, depth, rr_state, candidates)
        assert pick(candidates, depth) == want
    assert rng.bit_generator.state == spec_rng.bit_generator.state


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown policy"):
        replica_picker("least_loaded", np.random.default_rng(0))


class NoPickGenerator(np.random.Generator):
    """A generator that counts calls to the two numpy pick methods."""

    calls = 0

    def choice(self, *args, **kwargs):
        NoPickGenerator.calls += 1
        return super().choice(*args, **kwargs)

    def integers(self, *args, **kwargs):
        NoPickGenerator.calls += 1
        return super().integers(*args, **kwargs)


@pytest.mark.parametrize("routing", ["jsq2", "random"])
def test_vectorized_router_never_calls_numpy_pick(monkeypatch, routing):
    faults = fault_storm(8, 0.05, seed=2)
    monkeypatch.setattr(
        np.random,
        "default_rng",
        lambda seed=None: NoPickGenerator(np.random.PCG64(seed)),
    )
    calls = {}
    for engine in ("reference", "vectorized"):
        NoPickGenerator.calls = 0
        router = ResilientRouter(
            BROADWELL,
            RMC1_SMALL,
            8,
            8,
            routing=routing,
            policy=ResiliencePolicy(
                timeout_s=0.01, max_retries=1, hedge_delay_s=0.005
            ),
            overload=OverloadConfig(admission=AdmissionPolicy(queue_capacity=4)),
            seed=5,
            engine=engine,
        )
        router.run(
            offered_qps=2.0 * 8 / router._base_service_s,
            duration_s=0.05,
            faults=faults,
        )
        calls[engine] = NoPickGenerator.calls
    assert calls["reference"] > 0  # the spec still picks through numpy
    assert calls["vectorized"] == 0



@pytest.mark.parametrize("policy", ["jsq2", "random"])
def test_picker_holds_its_bit_generator(policy):
    # The picker reads through a raw pointer into the bit generator's
    # state, so it must own a reference that keeps that memory alive.
    bit_generator = np.random.PCG64(11)
    before = sys.getrefcount(bit_generator)
    pick = replica_picker(policy, np.random.Generator(bit_generator))
    assert sys.getrefcount(bit_generator) > before
    assert pick([3, 4], [0] * 5) in (3, 4)
