"""Property-based tests for the GC: safety under random heap histories."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.core.tracking import Technique
from repro.guest.kernel import GuestKernel
from repro.hypervisor.hypervisor import Hypervisor
from repro.trackers.boehm import BoehmGc, GcHeap, GcParams


def fresh_heap():
    clock = SimClock()
    hv = Hypervisor(clock, CostModel(), host_mem_mb=64)
    vm = hv.create_vm("vm0", mem_mb=16)
    kernel = GuestKernel(vm)
    proc = kernel.spawn("app", n_pages=2048)
    heap = GcHeap(kernel, proc, heap_pages=1024)
    return kernel, heap


def test_alloc_after_collect_grows_adjacency():
    """Regression: allocating after a collect grows the id space without
    adding edges, and marking must still look up the new ids."""
    kernel, heap = fresh_heap()
    gc = BoehmGc(kernel, heap, Technique.ORACLE,
                 GcParams(threshold_bytes=1 << 30))
    gc.start()
    (a,) = heap.alloc(1, 64)
    heap.add_roots([int(a)])
    gc.collect()
    ids = heap.alloc(2, 64)
    heap.add_roots([int(ids[-1])])
    gc._did_full = False  # force a full cycle (full_mark walks every edge)
    gc.collect()
    assert {int(a), int(ids[-1])} <= {int(i) for i in heap.live_ids()}
    gc.stop()


# One step of heap history.
step = st.one_of(
    st.tuples(st.just("alloc"), st.integers(1, 30),
              st.sampled_from([64, 256, 1024])),
    st.tuples(st.just("link"), st.integers(0, 10_000), st.integers(0, 10_000)),
    st.tuples(st.just("root"), st.integers(0, 10_000), st.just(0)),
    st.tuples(st.just("unroot"), st.integers(0, 10_000), st.just(0)),
    st.tuples(st.just("collect"), st.just(0), st.just(0)),
)


def reachable_from_roots(heap) -> set[int]:
    """Independent reachability computation (pure Python BFS)."""
    indptr, dst = heap.csr()
    seen = set()
    frontier = [r for r in range(heap._n_ids) if heap.is_root[r] and heap.alive[r]]
    seen.update(frontier)
    while frontier:
        nxt = []
        for n in frontier:
            for d in dst[indptr[n]:indptr[n + 1]].tolist():
                if d not in seen and heap.alive[d]:
                    seen.add(d)
                    nxt.append(d)
        frontier = nxt
    return seen


@settings(max_examples=30, deadline=None)
@given(steps=st.lists(step, min_size=1, max_size=40))
def test_property_rooted_objects_always_survive(steps):
    kernel, heap = fresh_heap()
    gc = BoehmGc(kernel, heap, Technique.ORACLE,
                 GcParams(threshold_bytes=1 << 30))
    gc.start()
    live_ids: list[int] = []
    try:
        for kind, a, b in steps:
            if kind == "alloc":
                ids = heap.alloc(a, b)
                live_ids.extend(int(i) for i in ids)
            elif kind == "link" and live_ids:
                src = live_ids[a % len(live_ids)]
                dst = live_ids[b % len(live_ids)]
                heap.set_refs([src], [dst])
            elif kind == "root" and live_ids:
                heap.add_roots([live_ids[a % len(live_ids)]])
            elif kind == "unroot" and live_ids:
                heap.remove_roots([live_ids[a % len(live_ids)]])
            elif kind == "collect":
                expected = reachable_from_roots(heap)
                gc.collect()
                survivors = set(int(i) for i in heap.live_ids())
                # Safety: everything reachable survived.
                assert expected <= survivors
                live_ids = [i for i in live_ids if heap.alive[i]]
        # Final full collection must be exact for full cycles.
        expected = reachable_from_roots(heap)
        gc._did_full = False  # force a full cycle
        gc.collect()
        survivors = set(int(i) for i in heap.live_ids())
        assert survivors == expected
    finally:
        gc.stop()


@settings(max_examples=30, deadline=None)
@given(steps=st.lists(step, min_size=1, max_size=40))
def test_property_page_live_consistency(steps):
    """page_live always equals the live (object, page) incidences."""
    kernel, heap = fresh_heap()
    gc = BoehmGc(kernel, heap, Technique.ORACLE,
                 GcParams(threshold_bytes=1 << 30))
    gc.start()
    live_ids: list[int] = []
    try:
        for kind, a, b in steps:
            if kind == "alloc":
                live_ids.extend(int(i) for i in heap.alloc(a, b))
            elif kind == "link" and live_ids:
                heap.set_refs([live_ids[a % len(live_ids)]],
                              [live_ids[b % len(live_ids)]])
            elif kind == "root" and live_ids:
                heap.add_roots([live_ids[a % len(live_ids)]])
            elif kind == "collect":
                gc.collect()
                live_ids = [i for i in live_ids if heap.alive[i]]
            live = heap.live_ids()
            assert int(heap.page_live.sum()) == int(heap.obj_span[live].sum())
    finally:
        gc.stop()
