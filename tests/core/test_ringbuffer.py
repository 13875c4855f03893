"""Unit + property tests for the shared ring buffer."""

from collections import deque
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ringbuffer import RingBuffer
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec


def test_push_and_pop_fifo_order():
    rb = RingBuffer(8)
    rb.push([1, 2, 3])
    rb.push([4])
    assert list(rb.pop_all()) == [1, 2, 3, 4]
    assert len(rb) == 0


def test_peek_does_not_consume():
    rb = RingBuffer(4)
    rb.push([7, 8])
    assert list(rb.peek_all()) == [7, 8]
    assert list(rb.pop_all()) == [7, 8]


def test_wraparound():
    rb = RingBuffer(4)
    rb.push([1, 2, 3])
    rb.pop_all()
    rb.push([4, 5, 6])  # wraps around the end of the backing array
    assert list(rb.pop_all()) == [4, 5, 6]


def test_overflow_drops_oldest_and_counts():
    rb = RingBuffer(4)
    rb.push([1, 2, 3, 4])
    dropped = rb.push([5, 6])
    assert dropped == 2
    assert rb.total_dropped == 2
    assert list(rb.pop_all()) == [3, 4, 5, 6]


def test_push_larger_than_capacity_keeps_newest():
    rb = RingBuffer(4)
    rb.push([0])
    dropped = rb.push(np.arange(10))
    assert dropped == 7  # the pre-existing entry plus 6 overflowed new ones
    assert list(rb.pop_all()) == [6, 7, 8, 9]


def test_total_pushed_counts_everything():
    rb = RingBuffer(4)
    rb.push([1, 2])
    rb.push(np.arange(10))
    assert rb.total_pushed == 12


def test_zero_capacity_rejected():
    with pytest.raises(ConfigurationError):
        RingBuffer(0)


def test_empty_push_and_pop():
    rb = RingBuffer(4)
    assert rb.push([]) == 0
    assert rb.pop_all().size == 0


def test_clear():
    rb = RingBuffer(4)
    rb.push([1, 2, 3])
    rb.clear()
    assert len(rb) == 0
    assert rb.pop_all().size == 0


@settings(max_examples=200, deadline=None)
@given(
    cap=st.integers(min_value=1, max_value=64),
    chunks=st.lists(
        st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=100),
        max_size=20,
    ),
)
def test_property_suffix_preserved(cap, chunks):
    """After any push sequence the buffer holds exactly the newest
    min(capacity, total) entries in order, and pushed == retained + dropped."""
    rb = RingBuffer(cap)
    reference: list[int] = []
    for chunk in chunks:
        rb.push(chunk)
        reference.extend(chunk)
    expected = reference[-cap:] if reference else []
    got = [int(x) for x in rb.peek_all()]
    assert got == expected[-len(got):] if got else expected == []
    assert got == reference[len(reference) - len(got):]
    assert rb.total_pushed == len(reference)
    assert rb.total_pushed == len(rb) + rb.total_dropped


def test_fresh_ring_holds_no_storage():
    """Storage follows occupancy: a default-size ring costs nothing until
    entries arrive, and never holds more than ``capacity`` entries."""
    rb = RingBuffer(1 << 20)
    assert rb._buf.nbytes <= 64
    rb.push(np.arange(16))
    assert rb._buf.size < 1024
    rb.push(np.arange((1 << 20) + 1))
    assert rb._buf.size == rb.capacity == len(rb)


def test_overflow_wraps_within_partial_storage():
    """Drops on a wrapped window whose storage is still below capacity wrap
    at the storage length, not at ``capacity``."""
    rb = RingBuffer(8)
    with FaultPlan([FaultSpec(FaultSite.RING_OVERFLOW, 1.0, max_fires=3)]).active():
        assert rb.push([0, 1, 2, 3]) == 3  # storage 4, window starts at 3
        assert rb.push([4, 5, 6]) == 0  # wraps inside the 4-entry storage
        assert rb.push(np.arange(7, 14)) == 3  # organic drop, then growth
    assert rb.pop_all().tolist() == list(range(6, 14))
    assert rb.total_dropped == 6


def _sizes_around(data, rb):
    """A push size one below, at or one above one of the ring's edges: the
    room left in storage (the next growth step), the storage length, doubled
    storage, the free space, or the capacity (the whole-ring branch)."""
    storage = rb._buf.size
    edges = [storage - len(rb), storage, rb.free, rb.capacity, 2 * storage]
    edge = data.draw(st.sampled_from(edges))
    return max(0, edge + data.draw(st.sampled_from([-1, 0, 1])))


@settings(max_examples=300, deadline=None)
@given(
    cap=st.integers(min_value=1, max_value=4096),
    faulted=st.booleans(),
    data=st.data(),
)
def test_property_matches_bounded_deque(cap, faulted, data):
    """Push/peek/pop/clear in any order behave exactly like a
    ``deque(maxlen=capacity)`` (drop-oldest), including the push return
    value, every counter, and injected ``RING_OVERFLOW`` drops, which a
    second injector built from the same plan replays on the reference."""
    rate = data.draw(st.sampled_from([0.05, 0.5]))
    plan = FaultPlan([FaultSpec(FaultSite.RING_OVERFLOW, rate)], seed=cap)
    shadow = plan.build()
    rb = RingBuffer(cap)
    ref: deque = deque(maxlen=cap)
    pushed = dropped = 0
    by_source: dict = {}
    nxt = 0
    with plan.active() if faulted else nullcontext():
        for _ in range(data.draw(st.integers(1, 25))):
            op = data.draw(st.sampled_from(["push", "push", "peek", "pop", "clear"]))
            if op == "push":
                n = data.draw(st.one_of(
                    st.integers(0, 4), st.integers(0, cap + 1), st.just(None)
                ))
                n = _sizes_around(data, rb) if n is None else n
                source = data.draw(st.sampled_from([None, 0, 1]))
                got = rb.push(np.arange(nxt, nxt + n), source=source)
                want = max(0, len(ref) + n - cap)
                ref.extend(range(nxt, nxt + n))
                nxt += n
                if faulted and n:
                    k = shadow.drop_count(FaultSite.RING_OVERFLOW, len(ref))
                    for _ in range(k):
                        ref.popleft()
                    want += k
                assert got == want
                pushed += n
                dropped += want
                if source is not None:
                    by_source[source] = by_source.get(source, 0) + n
            elif op == "peek":
                assert rb.peek_all().tolist() == list(ref)
            elif op == "pop":
                assert rb.pop_all().tolist() == list(ref)
                ref.clear()
            else:
                rb.clear()
                ref.clear()
            assert rb.peek_all().tolist() == list(ref)
            assert len(rb) == len(ref) and rb.free == cap - len(ref)
            assert rb.total_pushed == pushed
            assert rb.total_dropped == dropped
            assert rb.pushed_by_source == by_source
            assert rb._buf.size <= cap
