"""Differential test: the Boehm heap and collector against the versions
that swept and wrote columns over the whole id space (``boehm_oracle``).

Both run on identical stacks and get the same operations: allocations
(small, page-sized and multi-page objects), sorted and unsorted
``set_refs``, ``replace_ref``, frees of id runs, of scattered ids and of
unsorted ids (as the UAF mitigator releases them), roots, and full and
minor collections over random dirty page sets.  After every step the
returned ids, every per-id column, the edge runs, the free-id chunks in
order, ``page_live``, the free pages, the bump pointers, the simulated
clock and the cycle reports must be equal.  ``objects_on_pages`` now
returns ascending ids, so it is compared against the sorted oracle answer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.errors import GcError
from repro.guest.kernel import GuestKernel
from repro.hypervisor.hypervisor import Hypervisor
from repro.trackers.boehm.gc import BoehmGc
from repro.trackers.boehm.heap import GcHeap

from .boehm_oracle.gc import BoehmGc as OracleGc
from .boehm_oracle.heap import GcHeap as OracleHeap

SIZES = [32, 512, 2048, 4096, 5000, 3 * 4096]
COLUMNS = ("obj_page", "obj_size", "obj_span", "alive", "gen", "is_root")


class _Dirty:
    """Stands in for the tracking technique: hands the collector the
    dirty set the test drew for the next cycle."""

    def __init__(self) -> None:
        self.next = np.empty(0, dtype=np.int64)

    def collect(self) -> np.ndarray:
        return self.next.copy()


def _collector(heap_cls, gc_cls):
    clock = SimClock()
    hv = Hypervisor(clock, CostModel(), host_mem_mb=128)
    kernel = GuestKernel(hv.create_vm("vm0", mem_mb=32), switch_interval_us=5e4)
    heap = heap_cls(kernel, kernel.spawn("app", n_pages=1024), heap_pages=768)
    gc = gc_cls(kernel, heap)
    gc._tracker = _Dirty()
    return gc


def _assert_same(new: BoehmGc, old: OracleGc) -> None:
    h, o = new.heap, old.heap
    for name in COLUMNS:
        np.testing.assert_array_equal(getattr(h, name), getattr(o, name), name)
    assert h._n_ids == o._n_ids
    assert [len(c) for c in h._free_ids] == [len(c) for c in o._free_ids]
    for got, want in zip(h._free_ids, o._free_ids):
        np.testing.assert_array_equal(got, want)
    assert len(h._runs) == len(o._runs)
    for (gs, gd), (ws, wd) in zip(h._runs, o._runs):
        np.testing.assert_array_equal(gs, ws)
        np.testing.assert_array_equal(gd, wd)
    assert h.n_edges == o.n_edges
    np.testing.assert_array_equal(h.page_live, o.page_live)
    assert h._free_pages == o._free_pages
    assert h._bump == o._bump
    assert h._next_heap_vpn == o._next_heap_vpn
    assert h.allocated_bytes_since_gc == o.allocated_bytes_since_gc
    # Two GcCycleReport classes: compare the fields.
    assert [vars(c) for c in new.cycles] == [vars(c) for c in old.cycles]
    assert new.kernel.clock.now_us == old.kernel.clock.now_us


def _pick(data, ids: np.ndarray, label: str) -> np.ndarray:
    """A subset of ``ids``: a slice (a run when the ids are consecutive)
    or a scattered subset, either ascending or shuffled."""
    if data.draw(st.booleans(), label):
        lo = data.draw(st.integers(0, ids.size - 1), label)
        hi = data.draw(st.integers(lo + 1, ids.size), label)
        sub = ids[lo:hi]
    else:
        keep = data.draw(
            st.lists(st.booleans(), min_size=ids.size, max_size=ids.size), label)
        sub = ids[np.asarray(keep, dtype=bool)]
    if data.draw(st.booleans(), label):
        return np.asarray(data.draw(st.permutations(sub.tolist()), label),
                          dtype=np.int64)
    return sub.copy()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_heap_and_collector_match_oracle(data):
    new, old = _collector(GcHeap, BoehmGc), _collector(OracleHeap, OracleGc)
    heap, ref = new.heap, old.heap
    for _ in range(data.draw(st.integers(1, 30), label="n_ops")):
        op = data.draw(st.sampled_from(
            ["alloc", "alloc", "set_refs", "replace_ref", "free",
             "repeat_free", "roots", "full", "minor", "objects_on_pages"]),
            label="op")
        live = heap.live_ids()
        if op == "alloc":
            # Sometimes exactly the last freed chunk, in its free order.
            chunk = heap._free_ids[-1].size if heap._free_ids else 1
            n = data.draw(st.integers(1, 40) | st.just(chunk), label="n")
            size = data.draw(st.sampled_from(SIZES), label="size")
            span = -(-size // 4096)
            if heap._next_heap_vpn + n * span > heap.vma.end_vpn:
                continue
            np.testing.assert_array_equal(heap.alloc(n, size), ref.alloc(n, size))
        elif op == "set_refs" and live.size:
            k = data.draw(st.integers(1, 30), label="k")
            src = np.asarray(data.draw(st.lists(
                st.sampled_from(live.tolist()), min_size=k, max_size=k),
                label="src"), dtype=np.int64)
            dst = np.asarray(data.draw(st.lists(
                st.sampled_from(live.tolist()), min_size=k, max_size=k),
                label="dst"), dtype=np.int64)
            if data.draw(st.booleans(), label="sorted"):
                order = np.argsort(src, kind="stable")
                src, dst = src[order], dst[order]
            heap.set_refs(src, dst)
            ref.set_refs(src.copy(), dst.copy())
        elif op == "replace_ref" and heap.n_edges:
            src = np.concatenate([s for s, _ in heap._runs])
            dst = np.concatenate([d for _, d in heap._runs])
            usable = np.flatnonzero(heap.alive[src])
            if not usable.size:
                continue
            e = data.draw(st.sampled_from(usable.tolist()), label="edge")
            new_dst = data.draw(
                st.none() | st.sampled_from(live.tolist()), label="new_dst")
            heap.replace_ref(src[e], dst[e], new_dst)
            ref.replace_ref(src[e], dst[e], new_dst)
        elif op == "free" and live.size:
            ids = _pick(data, live, "free")
            assert heap.free_objects(ids) == ref.free_objects(ids.copy())
        elif op == "repeat_free" and live.size:
            ids = _pick(data, live, "repeat")
            if not ids.size:
                continue
            again = data.draw(st.sampled_from(ids.tolist()), label="again")
            with pytest.raises(GcError, match="repeated"):
                heap.free_objects(np.append(ids, again))
        elif op == "roots" and live.size:
            ids = _pick(data, live, "roots")
            if data.draw(st.booleans(), label="add"):
                heap.add_roots(ids)
                ref.add_roots(ids)
            else:
                heap.remove_roots(ids)
                ref.remove_roots(ids)
        elif op in ("full", "minor"):
            vma = heap.vma
            dirty = np.unique(np.asarray(data.draw(st.lists(
                st.integers(max(0, vma.start_vpn - 4),
                            min(heap._space_pages, vma.end_vpn + 4) - 1),
                max_size=40), label="dirty"), dtype=np.int64))
            new._tracker.next = old._tracker.next = dirty
            if op == "full":
                # The first cycle is full; so is one after this reset.
                new._did_full = old._did_full = False
            assert vars(new.collect()) == vars(old.collect())
        elif op == "objects_on_pages":
            pages = np.unique(heap.obj_page[live])
            vpns = pages[:: data.draw(st.integers(1, 3), label="stride")]
            np.testing.assert_array_equal(
                heap.objects_on_pages(vpns), np.sort(ref.objects_on_pages(vpns))
            )
        _assert_same(new, old)


@pytest.mark.parametrize("order", [[1, 5, 0, 4], [3, 0, 2, 1], [0, 1, 2, 3]])
def test_reusing_an_unsorted_free_matches_oracle(order):
    """Ids come back in the order they were freed.  ``[1, 5, 0, 4]`` has
    first and last id three apart but is no range (ids 2, 3 are another
    size class and stay live); ``[3, 0, 2, 1]`` is a range out of order,
    each on its own page."""
    new, old = _collector(GcHeap, BoehmGc), _collector(OracleHeap, OracleGc)
    for heap in (new.heap, old.heap):
        for size in (4096, 2048, 4096):
            heap.alloc(2, size)
        heap.free_objects(np.array(order))
    np.testing.assert_array_equal(new.heap.alloc(4, 4096), old.heap.alloc(4, 4096))
    _assert_same(new, old)


def test_full_cycle_reads_unmapped_scanned_pages_like_oracle():
    """A two-page object placed on the free pages ``[2, 1]`` is recorded
    at pages 2-3, so freeing it releases page 3 under a live small
    object.  The next full cycle scans that page: like the oracle, it
    reads it (one minor fault), mapped or not."""
    new, old = _collector(GcHeap, BoehmGc), _collector(OracleHeap, OracleGc)
    for gc in (new, old):
        heap = gc.heap
        heap.alloc(25, 512)
        heap.set_refs(np.zeros(12, dtype=np.int64),
                      np.array([0] * 11 + [24], dtype=np.int64))
        heap.add_roots(np.arange(8))
    for op in ("full", "alloc", "full", "full"):
        if op == "alloc":
            np.testing.assert_array_equal(new.heap.alloc(16, 5000),
                                          old.heap.alloc(16, 5000))
            continue
        new._did_full = old._did_full = False
        assert vars(new.collect()) == vars(old.collect())
        _assert_same(new, old)
