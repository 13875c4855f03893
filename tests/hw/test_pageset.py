"""Bounded-domain page-set primitives equal their numpy references."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.guest.kernel import GuestKernel
from repro.hw.pageset import (
    count_pages,
    has_repeats,
    page_bitmap,
    pages_in,
    unique_pages,
)
from repro.hypervisor.hypervisor import Hypervisor
from repro.trackers.boehm.heap import GcHeap


@st.composite
def batches(draw):
    """``(x, n)``: a page batch in ``[0, n)`` of either dtype, sorted or
    not, sized on both sides of the bitmap/sort switch (n / 8)."""
    n = draw(st.integers(1, 4096))
    k = draw(st.sampled_from([0, 1, 2, n // 16, n // 8 - 1, n // 8, n, 3 * n]))
    k = max(k, 0)
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    hi = draw(st.sampled_from([n, min(n, 4)]))  # wide or duplicate-heavy
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).integers(0, hi, size=k).astype(dtype)
    if k and draw(st.booleans()):
        x[draw(st.integers(0, k - 1))] = n - 1  # the domain's last page
    if draw(st.booleans()):
        x = np.sort(x)
    return x, n


@settings(max_examples=300, deadline=None)
@given(batches())
def test_unique_pages_equals_np_unique(case):
    x, n = case
    got = unique_pages(x, n)
    want = np.unique(x)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(batches())
def test_has_repeats_equals_np_unique(case):
    x, n = case
    for y in (x, x[::-1]):  # ascending, descending or unsorted
        assert has_repeats(y, n) == (np.unique(y).size != y.size)


@settings(max_examples=300, deadline=None)
@given(batches())
def test_count_pages_equals_np_unique_counts(case):
    x, n = case
    pages, counts = count_pages(x, n)
    want_pages, want_counts = np.unique(x, return_counts=True)
    assert pages.dtype == np.int64 and counts.dtype == np.int64
    np.testing.assert_array_equal(pages, want_pages)
    np.testing.assert_array_equal(counts, want_counts)


@settings(max_examples=300, deadline=None)
@given(batches(), st.integers(0, 2**32 - 1))
def test_pages_in_equals_isin(case, seed):
    x, n = case
    pages = np.unique(x).astype(np.int64)
    sub = x[np.random.default_rng(seed).random(x.size) < 0.5]
    np.testing.assert_array_equal(pages_in(pages, sub, n), np.isin(pages, sub))


def test_page_bitmap_marks_exactly_the_batch():
    m = page_bitmap(np.array([3, 0, 3, 9]), 10)
    assert m.dtype == bool and m.size == 10
    assert list(np.flatnonzero(m)) == [0, 3, 9]


def test_empty_and_unsigned_inputs():
    for n in (1, 8, 1 << 16):
        assert unique_pages(np.empty(0, dtype=np.int64), n).dtype == np.int64
        assert unique_pages(np.empty(0, dtype=np.int64), n).size == 0
    ring = np.array([7, 2, 7, 5], dtype=np.uint64)  # ring-buffer entries
    np.testing.assert_array_equal(unique_pages(ring, 8), [2, 5, 7])
    np.testing.assert_array_equal(unique_pages(ring, 1 << 20), [2, 5, 7])


def test_result_never_aliases_input():
    for n in (10, 1000):  # bitmap path, sort path
        x = np.arange(10, dtype=np.int64)
        out = unique_pages(x, n)
        out[0] = 99
        assert x[0] == 0


# ---------------------------------------------------------------------
# GC heap: page_live bookkeeping vs the np.add.at reference
# ---------------------------------------------------------------------
def _fresh_heap(cls=GcHeap):
    clock = SimClock()
    hv = Hypervisor(clock, CostModel(), host_mem_mb=128)
    kernel = GuestKernel(hv.create_vm("vm0", mem_mb=32), switch_interval_us=5e4)
    proc = kernel.spawn("app", n_pages=1024)
    return cls(kernel, proc, heap_pages=768)


class _AddAtHeap(GcHeap):
    """The heap with the original ``np.add.at`` / ``np.unique`` update."""

    def _add_live(self, pages, delta):
        np.add.at(self.page_live, pages, delta)
        return np.unique(pages)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 1023),
    st.lists(st.integers(0, 1023), max_size=300),
    st.sampled_from([1, -1, 3]),
)
def test_heap_add_live_equals_add_at(base, pages, delta):
    heap = _fresh_heap()
    heap.page_live[:] = base
    ref = heap.page_live.copy()
    x = np.asarray(pages, dtype=np.int64)
    np.add.at(ref, x, delta)
    touched = heap._add_live(x, delta)
    np.testing.assert_array_equal(heap.page_live, ref)
    np.testing.assert_array_equal(touched, np.unique(x))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["alloc", "free"]),
            st.integers(1, 40),
            st.sampled_from([64, 512, 2048, 4096, 3 * 4096]),
            st.integers(0, 2**32 - 1),
        ),
        max_size=25,
    )
)
def test_heap_alloc_free_sequence_matches_add_at_heap(ops):
    heap, ref = _fresh_heap(), _fresh_heap(_AddAtHeap)
    for kind, n, size, seed in ops:
        if kind == "alloc":
            if heap._next_heap_vpn + n * 3 > heap.vma.end_vpn:
                continue
            np.testing.assert_array_equal(heap.alloc(n, size), ref.alloc(n, size))
        else:
            live = heap.live_ids()
            if not live.size:
                continue
            pick = np.random.default_rng(seed).random(live.size) < 0.5
            assert heap.free_objects(live[pick]) == ref.free_objects(live[pick])
        np.testing.assert_array_equal(heap.page_live, ref.page_live)
        np.testing.assert_array_equal(heap.obj_page, ref.obj_page)
        assert heap._free_pages == ref._free_pages
        assert heap._bump == ref._bump
    pages = np.unique(heap.obj_page[heap.live_ids()])
    for vpns in (pages, pages[::2], pages[1:2]):
        np.testing.assert_array_equal(
            heap.objects_on_pages(vpns), _objects_on_pages_ref(heap, vpns)
        )


def _objects_on_pages_ref(heap, vpns):
    """The former sorted (page, id) index with per-page range lookups,
    its hits put in id order (``objects_on_pages`` returns ascending ids)."""
    live = np.nonzero(heap.alive[: heap._n_ids])[0]
    order = np.argsort(heap.obj_page[live], kind="stable")
    sorted_pages, sorted_ids = heap.obj_page[live][order], live[order]
    lo = np.searchsorted(sorted_pages, vpns, "left")
    hi = np.searchsorted(sorted_pages, vpns, "right")
    lens = hi - lo
    offsets = np.repeat(lo + lens - lens.cumsum(), lens) + np.arange(lens.sum())
    return np.sort(sorted_ids[offsets])
