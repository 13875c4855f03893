"""MMU: batch page walks, fault routing, dirty-bit transitions, PML hooks.

Workloads present *page-access batches* (arrays of VPNs plus a write mask);
the MMU resolves each batch in vectorised passes:

1. missing pages   -> minor fault (or ufd ``miss`` fault) via the handlers
2. write-protected -> soft-dirty kernel fault or ufd ``write_protect`` fault
3. set PTE A/D bits; PTE dirty 0->1 transitions feed EPML's guest-level log
4. set EPT A/D bits; EPT dirty 0->1 transitions feed PML's hypervisor log
5. mutate physical frame contents for written pages

Fault *semantics and costs* belong to the guest kernel (the handlers
object); the MMU only detects, routes, and counts.  This mirrors hardware:
the MMU raises #PF / EPT violations, software decides what they mean.

There is one walk.  It normalises each batch once to a page set: a
sorted-distinct batch is its own set, any other is reduced to its sorted
distinct pages plus a per-page "any write" flag (every walk outcome
depends on nothing else).  Steps 1-5 run on that set, and a scalar write
mask stays a plain ``bool`` throughout.  A sorted-distinct batch is first
offered to the **TLB fast path**: if its pages are all TLB-cached,
present, writable, and already PTE+EPT dirty, it cannot fault and cannot
produce a 0->1 dirty transition (so nothing can be logged), exactly as a
real TLB hit on a dirty writable translation skips the walk circuit.
The original five-pass walk is the test oracle
:class:`repro.emu.RefMmu`; the differential and golden-trace suites pit
the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.errors import InvalidAddressError, ProtectionFault
from repro.hw.ept import EPT_ACCESSED, EPT_DIRTY, Ept
from repro.hw.memory import PhysicalMemory
from repro.hw.pageset import pages_in, unique_pages
from repro.hw.pagetable import (
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_PRESENT,
    PTE_UFD_WP,
    PTE_WRITABLE,
    PageTable,
)
from repro.hw.pml import PmlCircuit
from repro.hw.tlb import Tlb
from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = ["FaultHandlers", "MmuResult", "Mmu"]


def _sel(a: np.ndarray, w: np.ndarray | bool) -> np.ndarray:
    """The entries of ``a`` written under mask ``w`` (a bool or an array)."""
    if w is True:
        return a
    return a[:0] if w is False else a[w]


class FaultHandlers(Protocol):
    """What the guest kernel must provide to resolve faults."""

    def handle_minor_fault(self, vpns: np.ndarray, write_mask: np.ndarray) -> None:
        """Demand-page missing VPNs (must leave them present).

        ``write_mask`` marks VPNs faulted by a write; read faults should
        install clean zero-page mappings (not soft-dirty)."""

    def handle_ufd_miss_fault(
        self, vpns: np.ndarray, write_mask: np.ndarray
    ) -> np.ndarray:
        """userfaultfd ``miss`` faults; returns the subset actually handled
        by ufd (the rest fall back to the kernel minor-fault path).
        ``write_mask`` marks VPNs faulted by writes (UFFDIO_COPY of real
        data) versus reads (UFFDIO_ZEROPAGE, not dirty)."""

    def handle_wp_fault(self, vpns: np.ndarray, ufd_mask: np.ndarray) -> None:
        """Write faults on present, non-writable pages.  ``ufd_mask`` marks
        the ones registered for ufd write-protect; the rest are soft-dirty
        faults.  Must leave every page writable."""


@dataclass
class MmuResult:
    """Per-batch accounting returned by :meth:`Mmu.access`."""

    n_accesses: int = 0
    n_writes: int = 0
    n_minor_faults: int = 0
    n_wp_faults: int = 0
    n_ufd_faults: int = 0
    newly_pte_dirty: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    newly_ept_dirty: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )


class Mmu:
    """One MMU per VM; operates on any of its processes' page tables."""

    def __init__(self, ept: Ept, host_mem: PhysicalMemory, pml: PmlCircuit) -> None:
        self.ept = ept
        self.host_mem = host_mem
        self.pml = pml
        #: Diagnostics: batches/accesses resolved by the TLB fast path.
        self.n_fast_batches = 0
        self.n_fast_accesses = 0
        # Always 0 (no replay layer); benchmarks/e2e/layers.py still reads both.
        self.n_replay_batches = 0
        self.n_segment_replays = 0

    def access(
        self,
        pt: PageTable,
        tlb: Tlb,
        vpns: np.ndarray | list[int],
        write_mask: np.ndarray | bool,
        handlers: FaultHandlers,
        pml: PmlCircuit | None = None,
    ) -> MmuResult:
        """Resolve one access batch against ``pt``.

        ``write_mask`` may be a scalar bool (all reads / all writes) or a
        per-access boolean array.  ``pml`` selects the logging circuit of
        the vCPU executing the batch (SMP: each vCPU logs to its own
        buffers); it defaults to the circuit this MMU was built with
        (vCPU 0 — the single-vCPU configuration).
        """
        if pml is None:
            pml = self.pml
        v = np.asarray(vpns, dtype=np.int64).ravel()
        if np.isscalar(write_mask) or np.ndim(write_mask) == 0:
            # Scalar masks stay scalar until a walk needs the full array.
            wbool = bool(write_mask)
            w = None
            n_writes = int(v.size) if wbool else 0
        else:
            wbool = False
            w = np.asarray(write_mask, dtype=bool).ravel()
            if v.size != w.size:
                raise ValueError("vpns and write_mask length mismatch")
            n_writes = int(w.sum())
        res = MmuResult(n_accesses=int(v.size), n_writes=n_writes)
        if v.size == 0:
            return res
        if otr.ACTIVE is not None and n_writes:
            # Emitted before the walk step so fast-path, walked and
            # RefMmu batches trace identically; the written-VPN set
            # is the ground truth the trace-invariant tests check
            # collects against (dirty reported ⊆ pages with a preceding
            # write).
            s = otr.ACTIVE
            fields = {
                "n_writes": res.n_writes,
                "n_accesses": res.n_accesses,
                "vcpu_id": pml.vcpu_id,
            }
            if s.detail:
                written = v if w is None else v[w]
                fields["vpns"] = [int(x) for x in np.unique(written)]
            s.emit(EventKind.WRITE, **fields)
        return self._resolve(pt, tlb, v, w, wbool, handlers, res, pml)

    def _resolve(self, pt: PageTable, tlb: Tlb, v, w, wbool, handlers, res, pml):
        """The walk step of :meth:`access` for a checked, non-empty batch:
        the TLB fast path, else the walk.  ``w`` is the per-access write
        mask, or ``None`` for the scalar mask ``wbool``.
        """
        # Settle the batch's shape once (see module docstring).
        sd = v.size == 1 or bool((v[1:] > v[:-1]).all())
        lo, hi = (v[0], v[-1]) if sd else (v.min(), v.max())
        if lo < 0 or hi >= pt.n_pages:
            raise InvalidAddressError("VPN out of address space")
        m = wbool if w is None else w
        if not sd:
            pages = unique_pages(v, pt.n_pages)
            if w is not None:
                m = pages_in(pages, v[w], pt.n_pages)
            return self._walk(pt, tlb, pages, m, handlers, res, pml)
        if self._try_fast_path(pt, tlb, v, m):
            self.n_fast_batches += 1
            self.n_fast_accesses += res.n_accesses
            return res
        return self._walk(pt, tlb, v, m, handlers, res, pml)

    # ------------------------------------------------------------------
    # TLB fast path
    # ------------------------------------------------------------------
    def _try_fast_path(self, pt: PageTable, tlb: Tlb, v, w) -> bool:
        """Resolve the batch without a walk when nothing can change.

        Applicable to in-range sorted-distinct batches (``w`` a bool or a
        per-page mask) whose pages are all TLB-cached with PTE
        present+accessed (+writable and PTE/EPT dirty for written pages):
        no fault can fire and no dirty bit can transition 0->1, so no PML
        entry can be logged.  The only remaining architectural effect is
        the content-token write, performed here bit-identically to the
        walk; the TLB already holds every translation, so nothing is
        refilled.

        Returns ``False`` when the batch must take the full walk.
        """
        # A sorted-distinct batch whose ends are size - 1 apart is a run:
        # index it by slice, so the TLB and PTE reads are views, not gathers.
        lo = int(v[0])
        r = slice(lo, lo + v.size) if int(v[-1]) - lo == v.size - 1 else v
        if not tlb.cached_all(r):
            return False
        f = pt.flags[r]
        need_r = PTE_PRESENT | PTE_ACCESSED
        if not ((f & need_r) == need_r).all():
            return False
        fw = _sel(f, w)
        need_w = PTE_WRITABLE | PTE_DIRTY
        if fw.size and not ((fw & need_w) == need_w).all():
            return False
        g = pt.gpfn[r]
        # One reduction checks both ends: -1 (unmapped) viewed as uint64
        # exceeds any guest frame number.
        if int(g.view(np.uint64).max()) >= self.ept.n_guest_frames:
            return False
        ef = self.ept.flags[g]
        if not ((ef & EPT_ACCESSED) != 0).all():
            return False
        efw = _sel(ef, w)
        if efw.size and not ((efw & EPT_DIRTY) != 0).all():
            return False
        h = self.ept.hpfn[_sel(g, w)]
        if h.size and (h < 0).any():
            return False
        self.host_mem.write(h)
        return True

    # ------------------------------------------------------------------
    # the walk
    # ------------------------------------------------------------------
    def _walk(
        self,
        pt: PageTable,
        tlb: Tlb,
        v,
        w,
        handlers: FaultHandlers,
        res: MmuResult,
        pml: PmlCircuit,
    ) -> MmuResult:
        # ``v`` is a sorted-distinct, in-range page set and ``w`` its
        # per-page write flags (an array) or one flag for all (a bool).
        scalar = isinstance(w, bool)
        flags = pt.flags[v]

        # -- 1. missing pages -------------------------------------------
        present = (flags & PTE_PRESENT) != 0
        if not present.all():
            absent = ~present
            missing = v[absent]
            missing_w = np.full(missing.size, w) if scalar else w[absent]
            handled_by_ufd = handlers.handle_ufd_miss_fault(missing, missing_w)
            res.n_ufd_faults += int(len(handled_by_ufd))
            still = ~np.isin(missing, handled_by_ufd)
            if still.any():
                handlers.handle_minor_fault(missing[still], missing_w[still])
                res.n_minor_faults += int(still.sum())
            flags = pt.flags[v]
            if not ((flags & PTE_PRESENT) != 0).all():
                raise ProtectionFault("fault handler left pages unmapped")

        # -- 2. write-protection faults ----------------------------------
        any_w = w if scalar else bool(w.any())
        if any_w:
            writable = (_sel(flags, w) & PTE_WRITABLE) != 0
            if not writable.all():
                faulting = _sel(v, w)[~writable]
                ufd_mask = (pt.flags[faulting] & PTE_UFD_WP) != 0
                res.n_ufd_faults += int(ufd_mask.sum())
                res.n_wp_faults += int((~ufd_mask).sum())
                handlers.handle_wp_fault(faulting, ufd_mask)
                flags = pt.flags[v]
                if not ((_sel(flags, w) & PTE_WRITABLE) != 0).all():
                    raise ProtectionFault("WP fault handler left pages read-only")

        # -- 3+4. PTE bits, EPT bits ------------------------------------
        # No handler runs past this point, so ``flags`` is current.
        newf = flags | PTE_ACCESSED
        if any_w:
            was_clean = (flags & PTE_DIRTY) == 0
            if scalar:
                newf |= PTE_DIRTY
            else:
                was_clean &= w
                newf = np.where(w, newf | PTE_DIRTY, newf)
            res.newly_pte_dirty = v[was_clean]
        pt.flags[v] = newf
        if any_w:
            # EPML guest-level logging: GVAs whose PTE dirty bit was set.
            pml.log_gvas(res.newly_pte_dirty)
        gpfns = pt.gpfn[v]
        if (gpfns < 0).any():
            raise InvalidAddressError("translate of unmapped VPN")
        res.newly_ept_dirty = self.ept.touch(gpfns, w)
        # Hypervisor-level PML logging: GPAs whose EPT dirty bit was set.
        pml.log_gpas(res.newly_ept_dirty)

        # -- 5. content mutation + TLB -----------------------------------
        if any_w:
            self.host_mem.write(self.ept.translate(_sel(gpfns, w)))
        tlb.fill(v)
        return res

    # ------------------------------------------------------------------
    # Nothing in repro calls this; benchmarks/e2e/layers.py wraps it by name.
    def access_segment(
        self,
        pt: PageTable,
        tlb: Tlb,
        batches: list,
        handlers: FaultHandlers,
        pml: PmlCircuit | None = None,
    ) -> list[MmuResult]:
        return [self.access(pt, tlb, v, w, handlers, pml) for v, w in batches]

    # ------------------------------------------------------------------
    def read_page_contents(self, pt: PageTable, vpns: np.ndarray) -> np.ndarray:
        """Content tokens for present VPNs (checkpoint dump path)."""
        gpfns = pt.translate(vpns)
        hpfns = self.ept.translate(gpfns)
        return self.host_mem.read(hpfns)

    def write_page_contents(
        self, pt: PageTable, vpns: np.ndarray, tokens: np.ndarray
    ) -> None:
        """Store content tokens into present VPNs (restore path)."""
        gpfns = pt.translate(vpns)
        hpfns = self.ept.translate(gpfns)
        self.host_mem.store(hpfns, tokens)

    def map_page_contents(
        self, pt: PageTable, vpns: np.ndarray, tokens: np.ndarray
    ) -> None:
        """:meth:`write_page_contents` minus the store-path checks.

        Serverless snapshot restore maps thousands of instances from the
        same snapshot; ``vpns`` comes from the page table's own mapped set
        and ``tokens`` from a snapshot array of identical length, so the
        per-instance validation would be pure overhead.
        """
        gpfns = pt.translate(vpns)
        hpfns = self.ept.translate(gpfns)
        self.host_mem.store_trusted(hpfns, tokens)
