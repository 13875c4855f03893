"""Use-after-free mitigation driven by dirty-page tracking.

The paper's introduction names "use-after-free vulnerability mitigation
systems" among the userspace dirty-tracking consumers (§I).  This module
implements the MarkUs-style scheme: ``free()`` *quarantines* an object
instead of recycling it, and memory is only released once a scan proves
no live object still points to it — turning dangling-pointer dereferences
into accesses to still-valid (never-recycled) memory.

The expensive part is the pointer scan.  The first reclamation cycle
scans every live object; afterwards, pointers can only have changed on
pages written since the previous scan, so each cycle re-scans exactly the
dirty pages the tracking technique reports (plus the known referrers) —
the same incremental structure as the Boehm mark phase, with the same
technique-dependent cost profile.  Both build on
:class:`~repro.trackers.boehm.gc.HeapScanner`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tracking import Technique
from repro.errors import GcError
from repro.guest.kernel import GuestKernel
from repro.trackers.boehm.gc import HeapScanner
from repro.trackers.boehm.heap import GcHeap

__all__ = ["UafCycleReport", "UafMitigator"]

EV_UAF_SCAN = "uaf_scan"


@dataclass
class UafCycleReport:
    index: int
    kind: str  # "full" | "incremental"
    pause_us: float
    n_scanned: int
    n_dirty_pages: int
    n_released: int
    quarantine_after: int


class UafMitigator(HeapScanner):
    """Quarantine + incremental pointer scan over one GC heap."""

    cycles: list[UafCycleReport]

    def __init__(
        self,
        kernel: GuestKernel,
        heap: GcHeap,
        technique: Technique | str = Technique.PROC,
    ) -> None:
        super().__init__(kernel, heap, technique)
        self._quarantine: set[int] = set()
        #: src object -> quarantined targets found at its last scan.
        self._last_refs: dict[int, set[int]] = {}
        #: quarantined id -> number of known referrers.
        self._refcount: dict[int, int] = {}

    # ------------------------------------------------------------------
    def qfree(self, ids: np.ndarray | list[int]) -> None:
        """free(): quarantine instead of recycling."""
        arr = np.asarray(ids, dtype=np.int64).ravel()
        if not self.heap.alive[arr].all():
            raise GcError("qfree of a dead object")
        for i in arr:
            i = int(i)
            if i in self._quarantine:
                raise GcError(f"double qfree of object {i}")
            self._quarantine.add(i)
        # Quarantined objects hold no outgoing references of interest.
        for i in arr:
            self._purge_referrer(int(i))

    @property
    def quarantine_size(self) -> int:
        return len(self._quarantine)

    def is_quarantined(self, obj_id: int) -> bool:
        return int(obj_id) in self._quarantine

    # ------------------------------------------------------------------
    def _purge_referrer(self, src: int) -> None:
        old = self._last_refs.pop(src, set())
        for t in old:
            self._refcount[t] = self._refcount.get(t, 1) - 1

    def _scan_objects(self, ids: np.ndarray) -> None:
        """Re-derive each live, unquarantined object's quarantined targets
        from its edges, all found by one edge-store lookup."""
        heap = self.heap
        quarantined = np.zeros(heap._n_ids, dtype=bool)
        quarantined[np.fromiter(self._quarantine, np.int64)] = True
        ids = ids[heap.alive[ids] & ~quarantined[ids]]
        src, dst = heap.out_edges(ids)
        hit = quarantined[dst]
        found: dict[int, set[int]] = {}
        for s, t in zip(src[hit].tolist(), dst[hit].tolist()):
            found.setdefault(s, set()).add(t)
        for s in ids.tolist():
            targets = found.get(s, set())
            old = self._last_refs.get(s, set())
            for t in old - targets:
                self._refcount[t] = self._refcount.get(t, 1) - 1
            for t in targets - old:
                self._refcount[t] = self._refcount.get(t, 0) + 1
            if targets:
                self._last_refs[s] = targets
            else:
                self._last_refs.pop(s, None)

    def collect(self) -> UafCycleReport:
        """One reclamation cycle: scan, then release unreferenced memory."""
        clock = self.kernel.clock
        t0 = clock.now_us
        idx = len(self.cycles)
        dirty = self._in_heap(self._collect_dirty())
        if not self._did_full:
            kind = "full"
            scan_ids = self.heap.live_ids()
            scan_pages = self.heap.pages_of(scan_ids)
            self._did_full = True
        else:
            kind = "incremental"
            scan_pages = dirty
            scan_ids = self.heap.objects_on_pages(scan_pages)
        self._read_present(scan_pages)
        self._charge_scan(int(scan_ids.size), int(scan_pages.size), EV_UAF_SCAN)
        self._scan_objects(scan_ids)

        # Release quarantined objects nobody references any more.
        releasable = [
            q for q in self._quarantine if self._refcount.get(q, 0) <= 0
        ]
        if releasable:
            self.heap.free_objects(np.asarray(releasable, dtype=np.int64))
            self._quarantine.difference_update(releasable)
            for q in releasable:
                self._refcount.pop(q, None)
        report = UafCycleReport(
            index=idx,
            kind=kind,
            pause_us=clock.now_us - t0,
            n_scanned=int(scan_ids.size),
            n_dirty_pages=int(dirty.size),
            n_released=len(releasable),
            quarantine_after=len(self._quarantine),
        )
        self.cycles.append(report)
        return report
