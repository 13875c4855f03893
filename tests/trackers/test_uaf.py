"""Tests for the use-after-free mitigator."""

import pytest

from repro.core.tracking import Technique
from repro.errors import GcError
from repro.trackers.boehm import GcHeap
from repro.trackers.uaf import UafMitigator

TECHS = [Technique.PROC, Technique.SPML, Technique.EPML, Technique.ORACLE]


@pytest.fixture()
def heap(stack):
    proc = stack.kernel.spawn("app", n_pages=2048)
    return GcHeap(stack.kernel, proc, heap_pages=1024)


@pytest.mark.parametrize("technique", TECHS)
def test_unreferenced_quarantine_released_after_scan(stack, heap, technique):
    m = UafMitigator(stack.kernel, heap, technique)
    with m:
        ids = heap.alloc(10, 128)
        m.qfree(ids)  # nobody points at them
        report = m.collect()
    assert report.n_released == 10
    assert m.quarantine_size == 0
    assert heap.n_live == 0


@pytest.mark.parametrize("technique", TECHS)
def test_referenced_quarantine_retained(stack, heap, technique):
    """The mitigation property: memory with dangling pointers into it is
    never recycled, so the dangling dereference stays benign."""
    m = UafMitigator(stack.kernel, heap, technique)
    with m:
        holder = heap.alloc(1, 128)
        victim = heap.alloc(1, 128)
        heap.set_refs(holder, victim)  # a pointer the app forgets about
        m.qfree(victim)  # buggy free: holder still points at victim
        report = m.collect()
        assert report.n_released == 0
        assert m.is_quarantined(int(victim[0]))
        assert heap.alive[victim].all()  # memory still valid: UAF benign


@pytest.mark.parametrize("technique", TECHS)
def test_release_once_dangling_pointer_overwritten(stack, heap, technique):
    m = UafMitigator(stack.kernel, heap, technique)
    with m:
        holder = heap.alloc(1, 128)
        victim = heap.alloc(1, 128)
        other = heap.alloc(1, 128)
        heap.set_refs(holder, victim)
        m.qfree(victim)
        m.collect()
        assert m.quarantine_size == 1
        # The app overwrites the pointer cell (dirties holder's page).
        heap.replace_ref(int(holder[0]), int(victim[0]), int(other[0]))
        report = m.collect()
    assert report.n_released == 1
    assert m.quarantine_size == 0


def test_incremental_scan_touches_only_dirty_pages(stack, heap):
    m = UafMitigator(stack.kernel, heap, Technique.ORACLE)
    with m:
        ids = heap.alloc(2000, 64)
        heap.add_roots(ids[:1])
        full = m.collect()
        assert full.kind == "full"
        heap.write_objs(ids[:32])  # one page's worth of mutation
        inc = m.collect()
        assert inc.kind == "incremental"
        assert inc.n_scanned < full.n_scanned / 10


@pytest.mark.parametrize("technique", TECHS)
def test_collect_makes_one_edge_lookup(stack, heap, technique, monkeypatch):
    """A cycle finds every scanned object's targets in one batched
    edge-store query, full and incremental alike."""
    calls = []
    out_edges = GcHeap.out_edges

    def counted(self, ids):
        calls.append(len(ids))
        return out_edges(self, ids)

    monkeypatch.setattr(GcHeap, "out_edges", counted)
    m = UafMitigator(stack.kernel, heap, technique)
    with m:
        ids = heap.alloc(300, 64)
        heap.set_refs(ids[:-1], ids[1:])
        m.qfree(ids[100:110])
        for _ in range(2):
            heap.write_objs(ids[:100:7])
            calls.clear()
            report = m.collect()
            assert report.n_scanned > 100
            assert len(calls) == 1
    assert m.quarantine_size == 1  # ids[99] still points at ids[100]


def test_qfree_validation(stack, heap):
    m = UafMitigator(stack.kernel, heap, Technique.ORACLE)
    ids = heap.alloc(2, 128)
    m.qfree(ids[:1])
    with pytest.raises(GcError):
        m.qfree(ids[:1])  # double free caught at the allocator
    heap.free_objects(ids[1:])
    with pytest.raises(GcError):
        m.qfree(ids[1:])  # free of dead object
    with pytest.raises(GcError):
        m.collect()  # before start


def test_quarantine_pressure_drops_over_cycles(stack, heap):
    """An alloc/free-heavy loop: quarantine drains as scans prove safety."""
    m = UafMitigator(stack.kernel, heap, Technique.EPML)
    with m:
        for _ in range(5):
            ids = heap.alloc(200, 64)
            heap.write_objs(ids)
            m.qfree(ids)
            m.collect()
        assert m.quarantine_size == 0
        total_released = sum(c.n_released for c in m.cycles)
        assert total_released == 1000
