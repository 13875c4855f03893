"""Generation counters and walk-cache invalidation.

The walk cache's safety argument is entirely carried by three counters:
any mutation of mappings, flag bits, or cached translations must bump
the matching generation, and any bump must force the next occurrence of
a memoized batch back through the real walk.  These tests pin both
halves — the bump discipline per structure, and (property-based) that
every mutation kind a tracker can perform invalidates steady-state
replay so dirty 0->1 transitions are never swallowed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.harness import build_stack
from repro.hw.ept import Ept
from repro.hw.pagetable import PTE_DIRTY, PTE_SOFT_DIRTY, PageTable
from repro.hw.tlb import Tlb

N_PAGES = 48


# ---------------------------------------------------------------------
# bump discipline, per structure
# ---------------------------------------------------------------------
def test_pagetable_mutations_bump_generation():
    pt = PageTable(16)
    g = pt.generation
    pt.map([1, 2], [10, 11])
    assert pt.generation > g
    g = pt.generation
    pt.set_flags([1], PTE_DIRTY)
    assert pt.generation > g
    g = pt.generation
    pt.clear_flags([1], PTE_DIRTY)
    assert pt.generation > g
    g = pt.generation
    pt.unmap([2])
    assert pt.generation > g


def test_pagetable_reads_leave_generation_alone():
    pt = PageTable(16)
    pt.map([1, 2], [10, 11])
    g = pt.generation
    pt.present_mask([1, 2])
    pt.flag_mask([1], PTE_SOFT_DIRTY)
    pt.translate([1])
    pt.mapped_vpns()
    assert pt.generation == g


def test_ept_mutations_bump_generation():
    ept = Ept(16)
    g = ept.generation
    ept.map([0, 1], [5, 6])
    assert ept.generation > g
    g = ept.generation
    ept.touch(np.array([0, 1]), np.array([True, False]))
    assert ept.generation > g
    g = ept.generation
    ept.clear_dirty()
    assert ept.generation > g
    g = ept.generation
    ept.clear_dirty([0])
    assert ept.generation > g


def test_tlb_invalidations_bump_generation_fills_do_not():
    tlb = Tlb(16)
    g = tlb.generation
    # Fills only *add* cached translations: a memoized all-cached batch
    # stays all-cached, so fills must not invalidate replay.
    tlb.fill(np.array([1, 2, 3]))
    assert tlb.generation == g
    tlb.invalidate(np.array([2]))
    assert tlb.generation > g
    g = tlb.generation
    tlb.flush()
    assert tlb.generation > g


def test_uids_are_never_reused():
    assert PageTable(4).uid != PageTable(4).uid
    assert Tlb(4).uid != Tlb(4).uid


# ---------------------------------------------------------------------
# replay invalidation, property-based over mutation kinds
# ---------------------------------------------------------------------
def _steady_stack():
    """A stack replaying a steady-state write batch."""
    stack = build_stack(vm_mb=8)
    mmu = stack.vm.mmu
    mmu._cache = {}  # force the walk cache on regardless of env
    proc = stack.kernel.spawn("app", n_pages=N_PAGES)
    proc.space.add_vma(N_PAGES)
    vpns = np.arange(N_PAGES, dtype=np.int64)
    for _ in range(3):
        stack.kernel.access(proc, vpns, True)
    assert mmu.n_replay_batches >= 1  # walk -> fast path -> replay
    return stack, proc, vpns


MUTATIONS = st.sampled_from(
    [
        "clear_pte_dirty",
        "set_pte_flags",
        "remap",
        "unmap",
        "clear_ept_dirty",
        "ept_remap",
        "tlb_invalidate",
        "tlb_flush",
    ]
)


@settings(max_examples=24, deadline=None)
@given(op=MUTATIONS)
def test_any_mutation_invalidates_replay(op):
    """After *any* PTE/EPT/TLB mutation the next occurrence of a memoized
    batch must take a real walk (replay counter frozen), and a cleared
    dirty bit must be re-observed as a fresh 0->1 transition."""
    stack, proc, vpns = _steady_stack()
    mmu = stack.vm.mmu
    pt = proc.space.pt
    tlb = proc.space.tlb
    sub = vpns[: N_PAGES // 2]
    if op == "clear_pte_dirty":
        pt.clear_flags(sub, PTE_DIRTY)
        tlb.invalidate(sub)
    elif op == "set_pte_flags":
        pt.set_flags(sub, PTE_SOFT_DIRTY)
    elif op == "remap":
        gpfns = pt.gpfn[sub].copy()
        pt.map(sub, gpfns)
        tlb.invalidate(sub)
    elif op == "unmap":
        freed = pt.unmap(sub[:1])
        tlb.invalidate(sub[:1])
        pt.map(sub[:1], freed)
    elif op == "clear_ept_dirty":
        stack.vm.ept.clear_dirty()
    elif op == "ept_remap":
        g = int(pt.gpfn[0])
        stack.vm.ept.map([g], [int(stack.vm.ept.hpfn[g])])
    elif op == "tlb_invalidate":
        tlb.invalidate(sub)
    elif op == "tlb_flush":
        tlb.flush()
    before = mmu.n_replay_batches
    r = stack.kernel.access(proc, vpns, True)
    assert mmu.n_replay_batches == before, op
    if op == "clear_pte_dirty":
        assert set(int(v) for v in r.newly_pte_dirty) == set(int(v) for v in sub)
    if op == "clear_ept_dirty":
        assert r.newly_ept_dirty.size == vpns.size


def test_replay_resumes_after_invalidation():
    """Invalidation is one-shot: the batch re-memoizes and replays again."""
    stack, proc, vpns = _steady_stack()
    mmu = stack.vm.mmu
    proc.space.pt.clear_flags(vpns, PTE_DIRTY)
    proc.space.tlb.invalidate(vpns)
    stack.kernel.access(proc, vpns, True)  # full walk (re-dirty)
    stack.kernel.access(proc, vpns, True)  # fast path (re-memoize)
    before = mmu.n_replay_batches
    stack.kernel.access(proc, vpns, True)  # replay again
    assert mmu.n_replay_batches == before + 1


def test_replay_is_exact_about_batch_content():
    """Two batches that collide on the cache key's cheap discriminator
    (same endpoints, size, mask kind) must not replay each other."""
    stack = build_stack(vm_mb=8)
    mmu = stack.vm.mmu
    mmu._cache = {}
    proc = stack.kernel.spawn("app", n_pages=N_PAGES)
    proc.space.add_vma(N_PAGES)
    a = np.array([0, 10, 20, 30], dtype=np.int64)
    b = np.array([0, 11, 21, 30], dtype=np.int64)  # same key shape as a
    for _ in range(3):
        stack.kernel.access(proc, a, True)
        stack.kernel.access(proc, np.union1d(a, b), True)
    stack.kernel.access(proc, a, True)
    before_b = stack.vm.mmu.read_page_contents(proc.space.pt, b)
    stack.kernel.access(proc, b, True)
    after_b = stack.vm.mmu.read_page_contents(proc.space.pt, b)
    # If b had replayed a's memoized HPFNs, pages 11 and 21 would have
    # kept their old tokens; a correct resolution rewrites all four.
    assert bool((after_b != before_b).all())


def test_walk_cache_env_gate(monkeypatch):
    from repro.errors import ConfigurationError
    from repro.hw.mmu import Mmu

    vm = build_stack(vm_mb=8).vm

    def cached() -> bool:
        return Mmu(vm.ept, vm.mmu.host_mem, vm.vcpu.pml)._cache is not None

    for raw, expected in [("0", False), ("False", False), ("NO", False),
                          ("1", True), ("TRUE", True), ("yes", True),
                          ("", True)]:
        monkeypatch.setenv("REPRO_WALK_CACHE", raw)
        assert cached() is expected, raw
    for raw in ("off", "2", "enabled"):
        monkeypatch.setenv("REPRO_WALK_CACHE", raw)
        with pytest.raises(ConfigurationError, match="REPRO_WALK_CACHE"):
            cached()
    monkeypatch.delenv("REPRO_WALK_CACHE")
    assert cached() is True
    monkeypatch.setenv("REPRO_WALK_CACHE", "0")
    stack = build_stack(vm_mb=8)
    assert stack.vm.mmu._cache is None
    monkeypatch.setenv("REPRO_WALK_CACHE", "1")
    stack = build_stack(vm_mb=8)
    assert stack.vm.mmu._cache is not None
    # Constructor override beats the environment.
    mmu = Mmu(stack.vm.ept, stack.vm.mmu.host_mem, stack.vm.vcpu.pml,
              walk_cache=False)
    assert mmu._cache is None


def test_disabled_cache_never_replays():
    stack = build_stack(vm_mb=8)
    stack.vm.mmu._cache = None
    proc = stack.kernel.spawn("app", n_pages=N_PAGES)
    proc.space.add_vma(N_PAGES)
    vpns = np.arange(N_PAGES, dtype=np.int64)
    for _ in range(5):
        stack.kernel.access(proc, vpns, True)
    assert stack.vm.mmu.n_replay_batches == 0
    assert stack.vm.mmu.n_fast_batches >= 3  # fast path still fires
