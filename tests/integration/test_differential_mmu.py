"""Differential validation: production MMU walk vs multipass vs reference.

The production walk and its TLB fast path (``Mmu.access``) must be
bit-identical to the original multipass walk they replaced
(:class:`repro.emu.RefMmu`) — same :class:`MmuResult`, same PML buffer
contents and full-event counts, same PTE/EPT state, same physical-memory
content tokens, same clock totals.  Randomized batch streams drive two
stacks that differ only in ``vm.mmu`` (the reference one is swapped in
for the production one), plus the independent scalar reference model for
the log semantics.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.emu import RefMachine, RefMmu
from repro.guest.kernel import GuestKernel
from repro.hw import vmcs as vmcsf
from repro.hw.ept import EPT_DIRTY
from repro.hw.pagetable import PTE_DIRTY, PTE_SOFT_DIRTY
from repro.hypervisor.hypervisor import Hypervisor

N_PAGES = 96
CAPACITY = 16  # small buffer => frequent full events


class Harness:
    """The production stack wired for raw log capture."""

    def __init__(self, ref: bool = False) -> None:
        self.clock = SimClock()
        hv = Hypervisor(self.clock, CostModel(), host_mem_mb=32)
        self.vm = hv.create_vm("vm0", mem_mb=8, pml_buffer_entries=CAPACITY)
        if ref:
            mmu = self.vm.mmu
            self.vm.mmu = RefMmu(mmu.ept, mmu.host_mem, mmu.pml)
        self.kernel = GuestKernel(self.vm)
        self.proc = self.kernel.spawn("app", n_pages=N_PAGES)
        self.proc.space.add_vma(N_PAGES)
        pml = self.vm.vcpu.pml
        pml.hyp.configure()
        pml.guest.configure()
        self.guest_chunks: list[np.ndarray] = []
        pml.guest.on_full = self.guest_chunks.append
        self.vm.enabled_by_hyp = True
        self.vm.vcpu.vmcs.write(vmcsf.F_CTRL_ENABLE_PML, 1)
        self.vm.vcpu.vmcs.write(vmcsf.F_CTRL_ENABLE_GUEST_PML, 1)
        self.results: list[tuple] = []

    def access(self, vpns, writes) -> None:
        r = self.kernel.access(self.proc, vpns, writes)
        self.results.append((
            r.n_accesses, r.n_writes, r.n_minor_faults, r.n_wp_faults,
            r.n_ufd_faults, r.newly_pte_dirty.tolist(),
            r.newly_ept_dirty.tolist(),
        ))

    # -- observation ------------------------------------------------------
    def guest_log(self) -> list[int]:
        pml = self.vm.vcpu.pml
        out = [int(v) for chunk in self.guest_chunks for v in chunk]
        out += [int(v) for v in pml.guest.buffer.drain()]
        return out

    def hyp_log(self) -> list[int]:
        pml = self.vm.vcpu.pml
        gpfns = [int(g) for chunk in self.vm.hyp_dirty_log for g in chunk]
        gpfns += [int(g) for g in pml.hyp.drain()]
        return gpfns

    def pte_dirty(self) -> set:
        return set(int(v) for v in self.proc.space.pt.vpns_with_flag(PTE_DIRTY))

    def state(self) -> tuple:
        pml = self.vm.vcpu.pml
        return (
            self.results,
            self.guest_log(),
            self.hyp_log(),
            pml.guest.n_full_events,
            pml.hyp.n_full_events,
            self.proc.space.pt.flags.tolist(),
            self.proc.space.pt.gpfn.tolist(),
            self.vm.ept.flags.tolist(),
            self.vm.mmu.host_mem._content.tolist(),
            self.clock.now_us,
            dict(self.clock.snapshot().event_count),
        )


@st.composite
def _batch(draw):
    """One access batch of a drawn shape with a drawn write-mask kind.

    Shapes: a contiguous run, sorted with gaps, unsorted with duplicates
    (one page both read and written when the mask is an array), or a
    single page.  Mask kinds: scalar ``True``, scalar ``False``, or a
    per-access array.
    """
    shape = draw(st.sampled_from(("run", "gaps", "dups", "single")))
    kind = draw(st.sampled_from(("true", "false", "array")))
    page = st.integers(0, N_PAGES - 1)
    if shape == "run":
        lo = draw(page)
        vpns = list(range(lo, lo + draw(st.integers(1, min(40, N_PAGES - lo)))))
    elif shape == "gaps":
        vpns = sorted(draw(st.sets(page, min_size=2, max_size=40)))
    elif shape == "dups":
        both = draw(page)
        vpns = draw(st.lists(page, min_size=1, max_size=38)) + [both, both]
    else:
        vpns = [draw(page)]
    if kind != "array":
        writes = kind == "true"
    else:
        writes = draw(st.lists(st.booleans(), min_size=len(vpns),
                               max_size=len(vpns)))
        if shape == "dups":
            writes[-2:] = [False, True]
    if shape == "dups":
        order = draw(st.permutations(range(len(vpns))))
        vpns = [vpns[i] for i in order]
        if kind == "array":
            writes = [writes[i] for i in order]
    return vpns, writes


#: Re-arm operations the trackers interleave with the workload: soft-dirty
#: ``clear_refs`` (write-protects, so writes fault again), the PML
#: harvest's EPT dirty clear, and EPML's PTE dirty clear (both re-arm a
#: 0->1 transition).
REARMS = ("clear_refs", "clear_ept_dirty", "clear_pte_dirty")

OPS = st.lists(
    st.one_of(_batch(), _batch(), st.sampled_from(REARMS)),
    min_size=1,
    max_size=14,
)


def drive(ref: bool, ops) -> Harness:
    h = Harness(ref=ref)
    for op in ops:
        if op == "clear_refs":
            h.kernel.procfs.clear_refs(h.proc)
        elif op == "clear_ept_dirty":
            h.vm.ept.clear_dirty()
        elif op == "clear_pte_dirty":
            mapped = h.proc.space.pt.mapped_vpns()
            h.proc.space.pt.clear_flags(mapped, PTE_DIRTY)
            h.kernel.tlb_shootdown(h.proc, mapped)
        else:
            vpns, writes = op
            h.access(np.array(vpns, dtype=np.int64),
                     writes if isinstance(writes, bool)
                     else np.array(writes, dtype=bool))
    return h


def drive_ref(ops) -> RefMachine:
    ref = RefMachine(N_PAGES, capacity=CAPACITY)
    ref.hyp_enabled = True
    ref.guest_enabled = True
    for op in ops:
        if op == "clear_ept_dirty":
            ref.clear_ept_dirty()
        elif op == "clear_pte_dirty":
            ref.clear_pte_dirty()
        elif op != "clear_refs":  # soft-dirty state is not logged
            vpns, writes = op
            for i, vpn in enumerate(vpns):
                ref.access(vpn, writes if isinstance(writes, bool)
                           else writes[i])
    return ref


@settings(max_examples=80, deadline=None)
@given(ops=OPS)
def test_fused_equals_multipass(ops):
    """Full-state equivalence over randomized batch streams."""
    fused = drive(False, ops)
    multi = drive(True, ops)
    assert type(multi.vm.mmu) is RefMmu
    assert fused.state() == multi.state()


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_fused_equals_reference_model(ops):
    """Production walk vs the independent scalar reference (log semantics)."""
    fused = drive(False, ops)
    ref = drive_ref(ops)
    # Batches log in page order, the scalar replay in access order; both
    # log each 0->1 transition exactly once, so compare as multisets.
    assert sorted(fused.guest_log()) == sorted(ref.drain_guest())
    vpn_of = {int(g): v for v, g in enumerate(fused.proc.space.pt.gpfn)}
    ref_vpn_of = {g: v for v, g in ref.gpfn_of.items()}
    assert sorted(vpn_of[g] for g in fused.hyp_log()) == sorted(
        ref_vpn_of[g] for g in ref.drain_hyp()
    )
    assert set(fused.pte_dirty()) == {v for v, d in ref.pte_dirty.items() if d}


def test_fast_path_fires_and_stays_identical():
    """Re-writing a sorted, already-dirty range takes the TLB fast path
    on the production walk — and still matches the multipass walk
    bit-for-bit."""
    vpns = np.arange(0, 64, dtype=np.int64)
    fused, multi = Harness(), Harness(ref=True)
    for h in (fused, multi):
        for _ in range(4):
            h.access(vpns, True)
    assert fused.vm.mmu.n_fast_batches >= 3
    assert fused.vm.mmu.n_fast_accesses >= 3 * vpns.size
    assert multi.vm.mmu.n_fast_batches == 0
    assert fused.state() == multi.state()


def test_fast_path_declines_after_dirty_clear():
    """Clearing PTE dirty bits (tracker re-arm) must push the next write
    back through the full walk so the 0->1 transition is logged."""
    vpns = np.arange(0, 32, dtype=np.int64)
    h = Harness()
    h.access(vpns, True)
    h.access(vpns, True)  # fast path
    before = h.vm.mmu.n_fast_batches
    h.proc.space.pt.clear_flags(vpns, PTE_DIRTY)
    h.proc.space.tlb.invalidate(vpns)
    h.access(vpns, True)  # must re-log: full walk
    assert h.vm.mmu.n_fast_batches == before
    assert set(vpns.tolist()) <= set(h.guest_log())


#: Every PTE/EPT/TLB mutation kind a tracker, kernel or hypervisor can
#: apply between two writes of the same batch.
MUTATIONS = (
    "clear_pte_dirty", "set_pte_flags", "remap", "unmap",
    "clear_ept_dirty", "ept_remap", "tlb_invalidate", "tlb_flush",
)


def _mutate(h: Harness, op: str, sub: np.ndarray) -> None:
    pt, tlb, ept = h.proc.space.pt, h.proc.space.tlb, h.vm.ept
    if op == "clear_pte_dirty":
        pt.clear_flags(sub, PTE_DIRTY)
        tlb.invalidate(sub)
    elif op == "set_pte_flags":
        pt.set_flags(sub, PTE_SOFT_DIRTY)
    elif op == "remap":
        pt.map(sub, pt.gpfn[sub].copy())
        tlb.invalidate(sub)
    elif op == "unmap":
        freed = pt.unmap(sub[:1])
        tlb.invalidate(sub[:1])
        pt.map(sub[:1], freed)
    elif op == "clear_ept_dirty":
        ept.clear_dirty()
    elif op == "ept_remap":
        g = int(pt.gpfn[0])
        ept.map([g], [int(ept.hpfn[g])])
    elif op == "tlb_invalidate":
        tlb.invalidate(sub)
    else:
        tlb.flush()


@settings(max_examples=24, deadline=None)
@given(op=st.sampled_from(MUTATIONS))
def test_fast_path_sees_every_mutation(op):
    """After any mutation the next write of a steady-state batch (one the
    TLB fast path was taking) reports what the reference walk reports,
    and re-observes every cleared dirty bit as a fresh 0->1 transition."""
    vpns = np.arange(0, 48, dtype=np.int64)
    fused, multi = Harness(), Harness(ref=True)
    for h in (fused, multi):
        for _ in range(3):
            h.access(vpns, True)
        _mutate(h, op, vpns[:24])
    assert fused.vm.mmu.n_fast_batches == 2
    pt, ept = fused.proc.space.pt, fused.vm.ept
    clean_ptes = vpns[(pt.flags[vpns] & PTE_DIRTY) == 0]
    g = pt.gpfn[vpns]
    clean_epts = np.unique(g[(ept.flags[g] & EPT_DIRTY) == 0])
    for h in (fused, multi):
        h.access(vpns, True)
    assert fused.results[-1] == multi.results[-1]
    assert fused.state() == multi.state()
    assert fused.results[-1][5] == clean_ptes.tolist()
    assert fused.results[-1][6] == clean_epts.tolist()
