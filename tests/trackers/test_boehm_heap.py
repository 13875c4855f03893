"""Tests for the GC heap."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.errors import GcError
from repro.guest.kernel import GuestKernel
from repro.hypervisor.hypervisor import Hypervisor
from repro.trackers.boehm.heap import GcHeap


@pytest.fixture()
def heap(stack):
    proc = stack.kernel.spawn("app", n_pages=512)
    return GcHeap(stack.kernel, proc, heap_pages=256)


def test_alloc_packs_small_objects(heap):
    ids = heap.alloc(10, 512)  # 8 per page
    pages = heap.obj_page[ids]
    assert len(np.unique(pages)) == 2
    assert heap.n_live == 10
    assert heap.total_allocated_objects == 10


def test_alloc_continues_partial_page(heap):
    a = heap.alloc(3, 1024)  # 4 per page -> 1 slot left
    b = heap.alloc(1, 1024)
    assert heap.obj_page[b[0]] == heap.obj_page[a[0]]
    c = heap.alloc(1, 1024)  # new page
    assert heap.obj_page[c[0]] != heap.obj_page[a[0]]


def test_alloc_large_objects_span_pages(heap):
    ids = heap.alloc(2, 8192)  # 2 pages each
    assert heap.obj_span[ids[0]] == 2
    assert heap.obj_page[ids[1]] - heap.obj_page[ids[0]] == 2


def test_alloc_dirty_pages_visible_to_tracking(stack, heap):
    from repro.core.tracking import Technique, make_tracker

    tracker = make_tracker(Technique.ORACLE, stack.kernel, heap.process)
    with tracker:
        ids = heap.alloc(4, 2048)
        dirty = set(int(v) for v in tracker.collect())
    assert set(int(p) for p in heap.obj_page[ids]) <= dirty


def test_set_refs_and_neighbors(heap):
    ids = heap.alloc(4, 256)
    heap.set_refs([ids[0], ids[0], ids[1]], [ids[1], ids[2], ids[3]])
    out = set(int(x) for x in heap.out_neighbors(ids[:1]))
    assert out == {int(ids[1]), int(ids[2])}
    assert heap.n_edges == 3


def test_set_refs_validation(heap):
    ids = heap.alloc(2, 256)
    with pytest.raises(GcError):
        heap.set_refs([ids[0]], [ids[0], ids[1]])
    heap.free_objects(ids[1:])
    with pytest.raises(GcError):
        heap.set_refs([ids[0]], [ids[1]])


def test_objects_on_pages(heap):
    a = heap.alloc(8, 512)  # one page
    b = heap.alloc(8, 512)  # next page
    page_a = int(heap.obj_page[a[0]])
    got = set(int(x) for x in heap.objects_on_pages(np.array([page_a])))
    assert got == set(int(x) for x in a)


def test_free_releases_empty_pages_and_reuses(stack, heap):
    ids = heap.alloc(8, 512)  # exactly one page
    page = int(heap.obj_page[ids[0]])
    free_frames = stack.vm.guest_frames.n_free
    heap.free_objects(ids)
    assert heap.page_live[page] == 0
    assert not heap.process.space.pt.present_mask([page]).any()
    assert stack.vm.guest_frames.n_free == free_frames + 1
    # Page and ids get reused.
    again = heap.alloc(8, 512)
    assert int(heap.obj_page[again[0]]) == page
    assert set(int(x) for x in again) == set(int(x) for x in ids)


def test_partial_free_keeps_page(heap):
    ids = heap.alloc(8, 512)
    page = int(heap.obj_page[ids[0]])
    heap.free_objects(ids[:4])
    assert heap.page_live[page] == 4
    assert heap.process.space.pt.present_mask([page]).all()


def test_double_free_rejected(heap):
    ids = heap.alloc(2, 256)
    heap.free_objects(ids)
    with pytest.raises(GcError):
        heap.free_objects(ids)


@pytest.mark.parametrize("order", [[0, 0], [1, 0, 1]])
def test_free_rejects_an_id_repeated_in_one_call(heap, order):
    ids = heap.alloc(4, 512)
    live = heap.page_live.copy()
    with pytest.raises(GcError, match="repeated"):
        heap.free_objects(ids[order])
    # Nothing changed: every object is live, its page counted once.
    assert heap.alive[ids].all()
    np.testing.assert_array_equal(heap.page_live, live)
    assert heap._free_ids == []
    again = heap.alloc(2, 512)
    assert len(set(again.tolist())) == 2
    assert not set(again.tolist()) & set(ids.tolist())


def test_free_large_object_releases_all_span_pages(stack, heap):
    ids = heap.alloc(1, 3 * 4096)
    free_frames = stack.vm.guest_frames.n_free
    heap.free_objects(ids)
    assert stack.vm.guest_frames.n_free == free_frames + 3


def test_roots_validation(heap):
    ids = heap.alloc(2, 256)
    heap.add_roots(ids[:1])
    assert heap.is_root[ids[0]]
    heap.remove_roots(ids[:1])
    assert not heap.is_root[ids[0]]
    heap.free_objects(ids[1:])
    with pytest.raises(GcError):
        heap.add_roots(ids[1:])


def test_add_roots_checks_every_id_before_rooting_any(heap):
    ids = heap.alloc(3, 256)
    heap.free_objects(ids[1:2])
    with pytest.raises(GcError, match="dead"):
        heap.add_roots(ids)  # the dead id sits between two live ones
    assert not heap.is_root[: heap._n_ids].any()


@pytest.mark.parametrize(
    "method", ["add_roots", "remove_roots", "out_neighbors", "free_objects"]
)
def test_ids_outside_the_id_space_rejected(heap, method):
    ids = heap.alloc(2, 256)
    for bad in (heap._n_ids, -1):
        with pytest.raises(GcError, match="out of range"):
            getattr(heap, method)(np.array([int(ids[0]), bad]))


@pytest.mark.parametrize("method", ["write_objs", "read_objs"])
def test_access_ids_outside_a_full_id_space_rejected(heap, method):
    """On a heap whose id columns are full, a negative id would wrap to a
    live object and a large one would overrun the columns."""
    heap.alloc(1024, 64)
    assert heap._n_ids == heap.alive.size
    for bad in (-1, -5, heap._n_ids, 10**7):
        with pytest.raises(GcError, match="out of range"):
            getattr(heap, method)([bad])


def test_compact_edges_drops_dead(heap):
    ids = heap.alloc(3, 256)
    heap.set_refs([ids[0], ids[1]], [ids[1], ids[2]])
    heap.free_objects(ids[1:2])
    heap.compact_edges()
    assert heap.n_edges == 0  # both edges touched the dead object


def test_heap_exhaustion(stack):
    proc = stack.kernel.spawn("small", n_pages=32)
    heap = GcHeap(stack.kernel, proc, heap_pages=2)
    heap.alloc(2, 4096)
    with pytest.raises(GcError):
        heap.alloc(1, 4096)


def test_alloc_charges_tracked_compute(stack, heap):
    from repro.core.clock import World

    before = stack.clock.world_us(World.TRACKED)
    heap.alloc(100, 64)
    assert stack.clock.world_us(World.TRACKED) > before


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=50),
            st.sampled_from([64, 256, 1024, 4096]),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_property_page_live_matches_objects(sizes):
    clock = SimClock()
    hv = Hypervisor(clock, CostModel(), host_mem_mb=64)
    vm = hv.create_vm("vm", mem_mb=16)
    kernel = GuestKernel(vm)
    proc = kernel.spawn("p", n_pages=2048)
    heap = GcHeap(kernel, proc, heap_pages=1024)
    all_ids = []
    for n, s in sizes:
        all_ids.append(heap.alloc(n, s))
    # page_live sums to the number of (object, page) incidences.
    ids = np.concatenate(all_ids)
    expected = int(heap.obj_span[ids].sum())
    assert int(heap.page_live.sum()) == expected
    # Free everything: all counts return to zero.
    heap.free_objects(ids)
    assert int(heap.page_live.sum()) == 0
    assert heap.n_live == 0


def test_replace_ref_swaps_pointer_cell(heap):
    ids = heap.alloc(3, 256)
    heap.set_refs(ids[:1], ids[1:2])
    heap.replace_ref(int(ids[0]), int(ids[1]), int(ids[2]))
    out = set(int(x) for x in heap.out_neighbors(ids[:1]))
    assert out == {int(ids[2])}
    assert heap.n_edges == 1
    # Clearing to NULL drops the edge entirely.
    heap.replace_ref(int(ids[0]), int(ids[2]), None)
    assert heap.out_neighbors(ids[:1]).size == 0


def test_replace_ref_drops_the_oldest_matching_edge(heap):
    a, b, c = (int(i) for i in heap.alloc(3, 256))
    heap.set_refs([a, a], [b, c])
    heap.set_refs([a], [b])  # a second run, merged into the first
    heap.replace_ref(a, b, None)
    indptr, dst = heap.csr()
    assert dst[indptr[a]:indptr[a + 1]].tolist() == [c, b]


def test_replace_ref_validation(heap):
    ids = heap.alloc(2, 256)
    with pytest.raises(GcError):
        heap.replace_ref(int(ids[0]), int(ids[1]), None)  # no such edge
    heap.set_refs(ids[:1], ids[1:2])
    heap.free_objects(ids[:1])
    with pytest.raises(GcError):
        heap.replace_ref(int(ids[0]), int(ids[1]), None)  # dead source


def test_read_and_write_of_dead_object_rejected(heap):
    ids = heap.alloc(2, 256)
    heap.free_objects(ids[1:])
    heap.read_objs(ids[:1])
    with pytest.raises(GcError):
        heap.read_objs(ids)
    with pytest.raises(GcError):
        heap.write_objs(ids)


def test_freed_id_is_reused_first(heap):
    a, _ = heap.alloc(2, 256)
    heap.free_objects(np.array([a]))
    (reused,) = heap.alloc(1, 256)
    assert reused == a


def test_reused_id_starts_without_out_edges(heap):
    a, b = heap.alloc(2, 256)
    heap.set_refs([a], [b])
    heap.free_objects(np.array([a]))
    (reused,) = heap.alloc(1, 256)
    assert reused == a
    assert heap.out_neighbors(np.array([reused])).size == 0
    assert heap.n_edges == 0


# One step of edge-store history; small integers pick among live ids or
# edges, so duplicate edges and one-edge batches are common.
pick = st.integers(0, 15)
edge_step = st.one_of(
    st.tuples(st.just("alloc"), st.integers(1, 12)),
    st.tuples(st.just("refs"),
              st.lists(st.tuples(pick, pick), min_size=1, max_size=40)),
    st.tuples(st.just("replace"), pick, st.none() | pick),
    st.tuples(st.just("free"), st.lists(pick, max_size=4), st.booleans()),
    st.tuples(st.just("query"), st.lists(pick, max_size=12)),
)


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(edge_step, min_size=1, max_size=40))
def test_property_edge_store_matches_append_log(steps):
    """The run store against a plain append log of (src, dst) pairs:
    the CSR export is the log's stable-argsort CSR, every query returns
    the log's multiset (of targets, and of (source, target) pairs), and
    the run count stays logarithmic."""
    from collections import Counter

    clock = SimClock()
    hv = Hypervisor(clock, CostModel(), host_mem_mb=64)
    kernel = GuestKernel(hv.create_vm("vm", mem_mb=16))
    heap = GcHeap(kernel, kernel.spawn("p", n_pages=2048), heap_pages=1024)
    log: list[tuple[int, int]] = []
    for step in steps:
        live = heap.live_ids().tolist()
        kind = step[0]
        if kind == "alloc":
            heap.alloc(step[1], 64)
        elif kind == "refs" and live:
            pairs = [(live[a % len(live)], live[b % len(live)]) for a, b in step[1]]
            heap.set_refs([s for s, _ in pairs], [d for _, d in pairs])
            log.extend(pairs)
        elif kind == "replace":
            cells = [e for e in log if heap.alive[e[0]]]
            if not cells:
                continue
            s, d = cells[step[1] % len(cells)]
            new = None if step[2] is None or not live else live[step[2] % len(live)]
            heap.replace_ref(s, d, new)
            del log[log.index((s, d))]
            if new is not None:
                log.append((s, new))
        elif kind == "free" and live:
            dead = sorted({live[a % len(live)] for a in step[1]})
            heap.free_objects(np.array(dead, dtype=np.int64))
            # A freed object's out-edges die with it.
            log = [(s, d) for s, d in log if s not in dead]
            if step[2]:
                heap.compact_edges()
                log = [(s, d) for s, d in log if heap.alive[s] and heap.alive[d]]
        elif kind == "query" and heap._n_ids:
            ids = [a % heap._n_ids for a in step[1]]
            want = Counter(d for i in ids for s, d in log if s == i)
            got = heap.out_neighbors(np.array(ids, dtype=np.int64))
            assert Counter(got.tolist()) == want
            # Each source's targets, once per occurrence of it in ids.
            src, dst = heap.out_edges(np.array(ids, dtype=np.int64))
            want = Counter((s, d) for i in ids for s, d in log if s == i)
            assert Counter(zip(src.tolist(), dst.tolist())) == want

        assert heap.n_edges == len(log)
        assert len(heap._runs) <= len(log).bit_length()  # floor(log2 n) + 1
        src = np.array([s for s, _ in log], dtype=np.int64)
        dst = np.array([d for _, d in log], dtype=np.int64)
        want_indptr = np.zeros(heap._n_ids + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=heap._n_ids), out=want_indptr[1:])
        indptr, got_dst = heap.csr()
        assert np.array_equal(indptr, want_indptr)
        assert np.array_equal(got_dst, dst[np.argsort(src, kind="stable")])
