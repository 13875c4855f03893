"""Tests for the MMU batch page-walk and fault routing."""

import numpy as np
import pytest

from repro.emu import RefMmu
from repro.errors import ProtectionFault
from repro.hw import vmcs as vm
from repro.hw.ept import Ept
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import Mmu
from repro.hw.pagetable import (
    PTE_DIRTY,
    PTE_SOFT_DIRTY,
    PTE_UFD_WP,
    PTE_WRITABLE,
    PageTable,
)
from repro.hw.pml import PmlCircuit
from repro.hw.tlb import Tlb


class Handlers:
    """Fault handlers mimicking a minimal guest kernel."""

    def __init__(self, pt: PageTable, ept: Ept, host: PhysicalMemory) -> None:
        self.pt = pt
        self.ept = ept
        self.host = host
        self.minor: list[np.ndarray] = []
        self.wp: list[tuple[np.ndarray, np.ndarray]] = []
        self.ufd_miss_handles: set[int] = set()
        self._next_gpfn = 0

    def handle_minor_fault(self, vpns: np.ndarray, write_mask=None) -> None:
        self.minor.append(vpns)
        gpfns = np.arange(self._next_gpfn, self._next_gpfn + len(vpns))
        self._next_gpfn += len(vpns)
        hpfns = self.host.alloc(len(vpns))
        self.ept.map(gpfns, hpfns)
        self.pt.map(vpns, gpfns)

    def handle_ufd_miss_fault(self, vpns: np.ndarray, write_mask=None) -> np.ndarray:
        handled = np.array(
            [v for v in vpns if int(v) in self.ufd_miss_handles], dtype=np.int64
        )
        if handled.size:
            self.handle_minor_fault(handled)
        return handled

    def handle_wp_fault(self, vpns: np.ndarray, ufd_mask: np.ndarray) -> None:
        self.wp.append((vpns, ufd_mask))
        self.pt.set_flags(vpns, PTE_WRITABLE | PTE_SOFT_DIRTY)
        self.pt.clear_flags(vpns, PTE_UFD_WP)


def _make_env(mmu_cls):
    host = PhysicalMemory(1024)
    ept = Ept(1024)
    pml = PmlCircuit(vm.Vmcs(), capacity=512)
    mmu = mmu_cls(ept, host, pml)
    pt = PageTable(256)
    tlb = Tlb(256)
    handlers = Handlers(pt, ept, host)
    return mmu, pt, tlb, handlers, ept, host, pml


@pytest.fixture()
def env():
    return _make_env(Mmu)


def test_first_touch_minor_faults_then_no_faults(env):
    mmu, pt, tlb, h, *_ = env
    r1 = mmu.access(pt, tlb, [0, 1, 2], True, h)
    assert r1.n_minor_faults == 3
    r2 = mmu.access(pt, tlb, [0, 1, 2], True, h)
    assert r2.n_minor_faults == 0


def test_write_sets_pte_and_ept_dirty(env):
    mmu, pt, tlb, h, ept, *_ = env
    r = mmu.access(pt, tlb, [0, 1], [True, False], h)
    assert list(r.newly_pte_dirty) == [0]
    assert pt.flag_mask([0], PTE_DIRTY).all()
    assert not pt.flag_mask([1], PTE_DIRTY).any()
    assert r.newly_ept_dirty.size == 1


def test_dirty_transition_only_once(env):
    mmu, pt, tlb, h, *_ = env
    r1 = mmu.access(pt, tlb, [0], True, h)
    r2 = mmu.access(pt, tlb, [0], True, h)
    assert r1.newly_pte_dirty.size == 1
    assert r2.newly_pte_dirty.size == 0
    assert r2.newly_ept_dirty.size == 0


def test_soft_dirty_wp_fault_path(env):
    """clear_refs-style WP: write to a clean, non-writable page faults."""
    mmu, pt, tlb, h, *_ = env
    mmu.access(pt, tlb, [0], True, h)
    pt.clear_flags([0], PTE_WRITABLE | PTE_SOFT_DIRTY | PTE_DIRTY)
    r = mmu.access(pt, tlb, [0], True, h)
    assert r.n_wp_faults == 1
    assert r.n_ufd_faults == 0
    assert pt.flag_mask([0], PTE_SOFT_DIRTY).all()
    assert pt.flag_mask([0], PTE_DIRTY).all()


def test_read_does_not_trigger_wp_fault(env):
    mmu, pt, tlb, h, *_ = env
    mmu.access(pt, tlb, [0], True, h)
    pt.clear_flags([0], PTE_WRITABLE)
    r = mmu.access(pt, tlb, [0], False, h)
    assert r.n_wp_faults == 0


def test_ufd_wp_fault_routed_with_mask(env):
    mmu, pt, tlb, h, *_ = env
    mmu.access(pt, tlb, [0, 1], True, h)
    pt.clear_flags([0, 1], PTE_WRITABLE)
    pt.set_flags([0], PTE_UFD_WP)
    r = mmu.access(pt, tlb, [0, 1], True, h)
    assert r.n_ufd_faults == 1
    assert r.n_wp_faults == 1
    (vpns, mask), = h.wp
    assert list(vpns) == [0, 1]
    assert list(mask) == [True, False]


def test_ufd_miss_fault_preempts_minor_fault(env):
    mmu, pt, tlb, h, *_ = env
    h.ufd_miss_handles = {1}
    r = mmu.access(pt, tlb, [0, 1], True, h)
    assert r.n_ufd_faults == 1
    assert r.n_minor_faults == 1


def test_content_tokens_change_on_write_only(env):
    mmu, pt, tlb, h, *_ = env
    mmu.access(pt, tlb, [0, 1], [True, False], h)
    t0 = mmu.read_page_contents(pt, np.array([0]))[0]
    t1 = mmu.read_page_contents(pt, np.array([1]))[0]
    assert t0 != 0
    assert t1 == 0  # never written
    mmu.access(pt, tlb, [0], False, h)
    assert mmu.read_page_contents(pt, np.array([0]))[0] == t0


def test_write_read_page_contents_roundtrip(env):
    mmu, pt, tlb, h, *_ = env
    mmu.access(pt, tlb, [0, 1, 2], True, h)
    toks = mmu.read_page_contents(pt, np.array([0, 1, 2]))
    mmu.access(pt, tlb, [5], True, h)
    mmu.write_page_contents(pt, np.array([5]), toks[:1])
    assert mmu.read_page_contents(pt, np.array([5]))[0] == toks[0]


def test_duplicate_vpns_in_batch(env):
    mmu, pt, tlb, h, *_ = env
    r = mmu.access(pt, tlb, [3, 3, 3, 4], [True, False, True, True], h)
    assert r.n_accesses == 4
    assert r.n_writes == 3
    assert set(r.newly_pte_dirty) == {3, 4}
    assert r.n_minor_faults == 2  # unique pages


def test_broken_handler_detected(env):
    mmu, pt, tlb, h, *_ = env

    class BadHandlers(Handlers):
        def handle_minor_fault(self, vpns, write_mask=None):  # leaves unmapped
            self.minor.append(vpns)

    bad = BadHandlers(pt, h.ept, h.host)
    with pytest.raises(ProtectionFault):
        mmu.access(pt, tlb, [0], True, bad)


def test_empty_batch(env):
    mmu, pt, tlb, h, *_ = env
    r = mmu.access(pt, tlb, [], True, h)
    assert r.n_accesses == 0


def test_tlb_filled_after_access(env):
    mmu, pt, tlb, h, *_ = env
    mmu.access(pt, tlb, [0, 7], True, h)
    assert tlb.cached_mask(np.array([0, 7])).all()


def test_fast_path_counters_and_result(env):
    mmu, pt, tlb, h, *_ = env
    vpns = np.arange(10, 42, dtype=np.int64)
    mmu.access(pt, tlb, vpns, True, h)
    assert mmu.n_fast_batches == 0  # first touch faults: full walk
    r = mmu.access(pt, tlb, vpns, True, h)
    assert mmu.n_fast_batches == 1
    assert mmu.n_fast_accesses == vpns.size
    assert r.n_accesses == vpns.size
    assert r.newly_pte_dirty.size == 0 and r.newly_ept_dirty.size == 0
    # Content tokens still advance on the fast path.
    toks1 = mmu.read_page_contents(pt, vpns)
    mmu.access(pt, tlb, vpns, True, h)
    assert mmu.n_fast_batches == 2
    assert (mmu.read_page_contents(pt, vpns) != toks1).all()


def test_fast_path_requires_sorted_unique_batch(env):
    mmu, pt, tlb, h, *_ = env
    vpns = np.array([5, 3, 4], dtype=np.int64)
    mmu.access(pt, tlb, vpns, True, h)
    mmu.access(pt, tlb, vpns, True, h)
    assert mmu.n_fast_batches == 0  # unsorted: always the full walk


def test_fast_path_declines_when_tlb_cold(env):
    mmu, pt, tlb, h, *_ = env
    vpns = np.arange(0, 8, dtype=np.int64)
    mmu.access(pt, tlb, vpns, True, h)
    tlb.invalidate(vpns)
    mmu.access(pt, tlb, vpns, True, h)
    assert mmu.n_fast_batches == 0


def test_multipass_never_takes_fast_path():
    mmu, pt, tlb, h, *_ = _make_env(RefMmu)
    vpns = np.arange(0, 8, dtype=np.int64)
    mmu.access(pt, tlb, vpns, True, h)
    mmu.access(pt, tlb, vpns, True, h)
    assert mmu.n_fast_batches == 0
    assert mmu._cache is None  # the oracle never memoizes


class TestRefMmu:
    """The walk-semantics tests above, re-run on the multipass oracle.

    The class-level ``env`` overrides the module fixture, so each test
    keeps its assertions and only the walk changes.  The fast-path tests
    are production-only and stay out.
    """

    @pytest.fixture()
    def env(self):
        return _make_env(RefMmu)

    test_first_touch_minor_faults_then_no_faults = staticmethod(
        test_first_touch_minor_faults_then_no_faults
    )
    test_write_sets_pte_and_ept_dirty = staticmethod(
        test_write_sets_pte_and_ept_dirty
    )
    test_dirty_transition_only_once = staticmethod(test_dirty_transition_only_once)
    test_soft_dirty_wp_fault_path = staticmethod(test_soft_dirty_wp_fault_path)
    test_read_does_not_trigger_wp_fault = staticmethod(
        test_read_does_not_trigger_wp_fault
    )
    test_ufd_wp_fault_routed_with_mask = staticmethod(
        test_ufd_wp_fault_routed_with_mask
    )
    test_ufd_miss_fault_preempts_minor_fault = staticmethod(
        test_ufd_miss_fault_preempts_minor_fault
    )
    test_content_tokens_change_on_write_only = staticmethod(
        test_content_tokens_change_on_write_only
    )
    test_write_read_page_contents_roundtrip = staticmethod(
        test_write_read_page_contents_roundtrip
    )
    test_duplicate_vpns_in_batch = staticmethod(test_duplicate_vpns_in_batch)
    test_broken_handler_detected = staticmethod(test_broken_handler_detected)
    test_empty_batch = staticmethod(test_empty_batch)
    test_tlb_filled_after_access = staticmethod(test_tlb_filled_after_access)
