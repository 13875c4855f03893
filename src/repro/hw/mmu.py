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

On top of the walk sits the **walk cache** (``REPRO_WALK_CACHE=0``
opts out): the memoized steady-state replay layer.  Every structure a
fast-path decision reads carries a cheap *generation counter* —
:attr:`PageTable.generation` (any mapping/flag mutation),
:attr:`Ept.generation` (map / A-D touch / harvest re-arm) and
:attr:`Tlb.generation` (invalidate/flush) — and a successful fast-path
batch is memoized keyed on (table identities, batch content, write mask)
with the three generations captured at memoization time.  A repeated
batch whose generations are unchanged *replays*: bulk content-token
write of the memoized host frames, fill accounting, done — no flag
gathers, no mask compares.  Replay can never swallow a dirty 0->1
transition because producing one requires a clear PTE or EPT dirty bit,
and every path that clears one (tracker re-arm via ``clear_flags``, PML
harvest via ``Ept.clear_dirty``) bumps the matching generation, which
invalidates the entry and forces the next access back through the walk.

:meth:`Mmu.access_segment` extends the same memoization to whole
*compiled plan segments* (:mod:`repro.guest.plan`): a run of batches
that previously all hit the fast path replays as one concatenated
content write plus per-batch result stamps, amortizing even the
per-batch cache probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.config import env_flag
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


#: Memoized batch outcomes kept per MMU (FIFO eviction).  Steady-state
#: workload loops touch a handful of distinct batches per process, so a
#: small cache captures them; the cap only bounds pathological churn.
_WALK_CACHE_CAP = 256
#: Memoized plan-segment outcomes kept per MMU (FIFO eviction).
_PLAN_CACHE_CAP = 64


def _sel(a: np.ndarray, w: np.ndarray | bool) -> np.ndarray:
    """The entries of ``a`` written under mask ``w`` (a bool or an array)."""
    if w is True:
        return a
    return a[:0] if w is False else a[w]


def _as_run(h: np.ndarray) -> tuple[int, int] | None:
    """``(first, size)`` when ``h`` is a strict +1 ascending run.

    Written HPFNs usually are one (frames are handed out in allocation
    order), and proving it once at memoization time lets every replay
    slice-assign the content tokens instead of scatter-assigning.
    Duplicate frames (last-wins rewrites) never pass the check, so the
    run write is always token-identical to the fancy write.
    """
    if h.size == 0:
        return None
    if h.size > 1 and not bool((h[1:] - h[:-1] == 1).all()):
        return None
    return (int(h[0]), int(h.size))


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

    def __init__(
        self,
        ept: Ept,
        host_mem: PhysicalMemory,
        pml: PmlCircuit,
        walk_cache: bool | None = None,
    ) -> None:
        self.ept = ept
        self.host_mem = host_mem
        self.pml = pml
        if walk_cache is None:
            walk_cache = env_flag("REPRO_WALK_CACHE", True)
        #: Memoized fast-path batches, keyed on (pt.uid, tlb.uid, batch
        #: shape, write-mask kind); entries hold the three generation
        #: counters captured at memoization time plus the exact batch
        #: arrays and the written HPFNs.  ``None`` when disabled
        #: (REPRO_WALK_CACHE=0 or walk_cache=False).
        self._cache: dict | None = {} if walk_cache else None
        #: Memoized plan segments (see :meth:`access_segment`).
        self._plan_cache: dict = {}
        #: Written HPFNs of the most recent fast-path/replay batch; None
        #: when the last batch took a walk.  access_segment reads this to
        #: build segment-level replay entries.
        self._last_h: np.ndarray | None = None
        #: Diagnostics: batches/accesses resolved by the TLB fast path
        #: (replayed batches count in both fast and replay totals).
        self.n_fast_batches = 0
        self.n_fast_accesses = 0
        self.n_replay_batches = 0
        self.n_replay_accesses = 0
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
            # Scalar masks stay scalar until a walk needs the full array:
            # the replay path never materializes them.
            wbool = bool(write_mask)
            w = None
            n_writes = int(v.size) if wbool else 0
        else:
            wbool = False
            w = np.asarray(write_mask, dtype=bool).ravel()
            if v.size != w.size:
                raise ValueError("vpns and write_mask length mismatch")
            n_writes = int(w.sum())
        self._last_h = None
        res = MmuResult(n_accesses=int(v.size), n_writes=n_writes)
        if v.size == 0:
            return res
        if otr.ACTIVE is not None and n_writes:
            # Emitted before the walk step so fast-path, replay, walked
            # and RefMmu batches trace identically; the written-VPN set
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
        replay, else the TLB fast path, else the walk.  ``w`` is the
        per-access write mask, or ``None`` for the scalar mask ``wbool``.
        """
        cache = self._cache
        key = None
        if cache is not None:
            # Cheap discriminator first; exactness is verified against the
            # stored arrays below (hashing the batch content would cost
            # more than the replay itself).
            wk = wbool if w is None else ("m", res.n_writes)
            key = (pt.uid, tlb.uid, int(v[0]), int(v[-1]), int(v.size), wk)
            ent = cache.get(key)
            if ent is not None:
                if (
                    ent[0] == pt.generation
                    and ent[1] == self.ept.generation
                    and ent[2] == tlb.generation
                ):
                    # Raw == instead of np.array_equal: the key already
                    # pins dtype/size, and the wrapper's asarray/shape
                    # plumbing costs more than the comparison itself.
                    if (ent[3] == v).all() and (
                        ent[4] is None or (ent[4] == w).all()
                    ):
                        # Replay: generations prove no mapping, flag or
                        # cached-translation change since this batch hit
                        # the fast path, so the memoized outcome (written
                        # HPFNs, no faults, no dirty transitions, full TLB
                        # hit) still holds verbatim.
                        h = ent[5]
                        if ent[6] is not None:
                            self.host_mem.write_trusted_run(*ent[6])
                        else:
                            self.host_mem.write_trusted(h)
                        tlb.note_refill(v.size)
                        self.n_fast_batches += 1
                        self.n_fast_accesses += res.n_accesses
                        self.n_replay_batches += 1
                        self.n_replay_accesses += res.n_accesses
                        self._last_h = h
                        return res
                else:
                    del cache[key]
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
        h = self._try_fast_path(pt, tlb, v, m)
        if h is not None:
            self.n_fast_batches += 1
            self.n_fast_accesses += res.n_accesses
            self._last_h = h
            if cache is not None:
                if len(cache) >= _WALK_CACHE_CAP and key not in cache:
                    cache.pop(next(iter(cache)))
                # Copies detach the entry from caller-owned buffers the
                # workload may mutate in place between iterations.
                cache[key] = (
                    pt.generation,
                    self.ept.generation,
                    tlb.generation,
                    v.copy(),
                    None if w is None else w.copy(),
                    h,
                    _as_run(h),
                )
            return res
        return self._walk(pt, tlb, v, m, handlers, res, pml)

    # ------------------------------------------------------------------
    # TLB fast path
    # ------------------------------------------------------------------
    def _try_fast_path(self, pt: PageTable, tlb: Tlb, v, w) -> np.ndarray | None:
        """Resolve the batch without a walk when nothing can change.

        Applicable to in-range sorted-distinct batches (``w`` a bool or a
        per-page mask) whose pages are all TLB-cached with PTE
        present+accessed (+writable and PTE/EPT dirty for written pages):
        no fault can fire and no dirty bit can transition 0->1, so no PML
        entry can be logged.  The only
        remaining architectural effects are the content-token writes and
        the TLB refresh, both performed here bit-identically to the walk.

        Returns the written HPFNs (possibly empty) on success — exactly
        what the walk cache needs to replay the batch — or ``None`` when
        the batch must take the full walk.
        """
        if not tlb.cached_all(v):
            return None
        f = pt.flags[v]
        need_r = PTE_PRESENT | PTE_ACCESSED
        if not ((f & need_r) == need_r).all():
            return None
        fw = _sel(f, w)
        need_w = PTE_WRITABLE | PTE_DIRTY
        if fw.size and not ((fw & need_w) == need_w).all():
            return None
        g = pt.gpfn[v]
        if (g < 0).any() or int(g.max()) >= self.ept.n_guest_frames:
            return None
        ef = self.ept.flags[g]
        if not ((ef & EPT_ACCESSED) != 0).all():
            return None
        efw = _sel(ef, w)
        if efw.size and not ((efw & EPT_DIRTY) != 0).all():
            return None
        h = self.ept.hpfn[_sel(g, w)]
        if h.size and (h < 0).any():
            return None
        self.host_mem.write(h)
        tlb.fill(v)
        return h

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
        pt.generation += 1  # direct flag write bypasses set_flags
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
    # plan-segment execution (walk cache, level 2)
    # ------------------------------------------------------------------
    def access_segment(
        self,
        pt: PageTable,
        tlb: Tlb,
        seg,
        handlers: FaultHandlers,
        pml: PmlCircuit | None = None,
    ) -> list[MmuResult]:
        """Execute one compiled plan segment (a run of access batches).

        ``seg`` is a :class:`repro.guest.plan.PlanSegment`.  The slow path
        simply loops :meth:`access` over the segment's batches; when every
        batch resolved via fast path or replay, the segment's combined
        outcome (concatenated written HPFNs + per-batch stats) is memoized
        keyed on ``(seg.uid, pt.uid, tlb.uid)``.  A later execution whose
        three generations are unchanged replays the whole segment with one
        bulk content write and per-batch result stamps — skipping even the
        per-batch cache probes.  Segments are immutable (plan arrays are
        frozen copies), so ``seg.uid`` fully identifies the batch content.

        Not applicable (falls back to the per-batch loop) for transient
        segments (``seg.uid is None``), a disabled walk cache, or
        detailed tracing (which wants per-batch written-VPN
        lists the memoized stats don't keep).
        """
        if pml is None:
            pml = self.pml
        cacheable = (
            self._cache is not None
            and seg.uid is not None
            and not (otr.ACTIVE is not None and otr.ACTIVE.detail)
        )
        if cacheable:
            key = (seg.uid, pt.uid, tlb.uid)
            ent = self._plan_cache.get(key)
            if ent is not None:
                if (
                    ent[0] == pt.generation
                    and ent[1] == self.ept.generation
                    and ent[2] == tlb.generation
                ):
                    return self._replay_segment(
                        tlb, ent[3], ent[4], ent[5], ent[6], pml
                    )
                del self._plan_cache[key]
        results: list[MmuResult] = []
        hs: list[np.ndarray] | None = [] if cacheable else None
        for v, wk in seg.batches:
            results.append(self.access(pt, tlb, v, wk, handlers, pml=pml))
            if hs is not None:
                if self._last_h is None:
                    hs = None  # a batch took a walk: segment not replayable
                else:
                    hs.append(self._last_h)
        if hs is not None and results:
            h_all = (
                np.concatenate(hs) if len(hs) > 1
                else hs[0] if hs
                else np.empty(0, dtype=np.int64)
            )
            stats = [(r.n_accesses, r.n_writes) for r in results]
            n_pages = sum(s[0] for s in stats)
            if (
                len(self._plan_cache) >= _PLAN_CACHE_CAP
                and key not in self._plan_cache
            ):
                self._plan_cache.pop(next(iter(self._plan_cache)))
            self._plan_cache[key] = (
                pt.generation,
                self.ept.generation,
                tlb.generation,
                h_all,
                n_pages,
                stats,
                _as_run(h_all),
            )
        return results

    def _replay_segment(
        self,
        tlb: Tlb,
        h_all: np.ndarray,
        n_pages: int,
        stats: list[tuple[int, int]],
        run: tuple[int, int] | None,
        pml: PmlCircuit,
    ) -> list[MmuResult]:
        """Replay a memoized segment bit-identically to the batch loop.

        Per-batch WRITE trace events fire in order with the same fields;
        the content writes collapse into one ``write_trusted`` (numpy
        fancy assignment is last-wins sequential, so the concatenation is
        token-identical to per-batch writes); fills collapse into one
        counter bump (``note_refill`` — every page provably still cached).
        """
        s = otr.ACTIVE
        results = []
        for na, nw in stats:
            if s is not None and nw:
                s.emit(
                    EventKind.WRITE,
                    n_writes=nw,
                    n_accesses=na,
                    vcpu_id=pml.vcpu_id,
                )
            results.append(MmuResult(n_accesses=na, n_writes=nw))
        if run is not None:
            self.host_mem.write_trusted_run(*run)
        else:
            self.host_mem.write_trusted(h_all)
        tlb.note_refill(n_pages)
        nb = len(stats)
        self.n_fast_batches += nb
        self.n_fast_accesses += n_pages
        self.n_replay_batches += nb
        self.n_replay_accesses += n_pages
        self.n_segment_replays += 1
        return results

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
