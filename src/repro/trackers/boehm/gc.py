"""Boehm-style mark-sweep collector with dirty-page-driven minor cycles.

The first collection is a full stop-the-world mark-sweep; survivors are
promoted to the old generation and the tracking technique is reset.
Subsequent cycles are *minor*: the technique supplies the dirty pages, the
collector re-scans only roots and old objects on those pages, and sweeps
unreachable young objects (``incremental.minor_mark``).  Periodic full
collections (``full_every``) reclaim old garbage.

Per-cycle pause times are what the paper's Fig. 5 plots; the SPML
first-cycle spike falls out naturally because the first collection's
technique reset drains the largest dirty set through the reverse mapper.

:class:`HeapScanner` is the part the collector shares with the
use-after-free mitigator (:mod:`repro.trackers.uaf`): the technique's
lifecycle, the heap-window filter of its dirty set, and the read and
charge of a scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clock import World
from repro.core.tracking import DirtyPageTracker, Technique, make_tracker
from repro.errors import GcError
from repro.guest.kernel import GuestKernel
from repro.hw.pageset import unique_pages
from repro.trackers.boehm.heap import GEN_OLD, GEN_YOUNG, GcHeap
from repro.trackers.boehm.incremental import full_mark, minor_mark

__all__ = ["GcParams", "GcCycleReport", "HeapScanner", "BoehmGc"]

EV_GC_SCAN = "gc_scan"
EV_GC_SWEEP = "gc_sweep"


@dataclass(frozen=True)
class GcParams:
    """Collector tuning knobs (unit costs live in ``CostParams``)."""

    threshold_bytes: int = 4 * 1024 * 1024  # allocation between cycles
    full_every: int = 0  # 0 = only the first cycle is full


@dataclass
class GcCycleReport:
    index: int
    kind: str  # "full" | "minor"
    pause_us: float
    n_visited: int
    n_scanned_pages: int
    n_freed: int
    n_dirty_pages: int
    live_after: int


class HeapScanner:
    """Scans a heap's objects on the pages a tracking technique reports
    dirty; the first cycle of a subclass scans everything (``_did_full``).

    With SPML the technique keeps its reverse-map cache unless
    ``reverse_map_cache`` is false (paper §VI-E: Boehm reuses the
    reverse-mapped addresses collected during the first cycle).
    """

    def __init__(
        self,
        kernel: GuestKernel,
        heap: GcHeap,
        technique: Technique | str = Technique.PROC,
        reverse_map_cache: bool = True,
    ) -> None:
        self.kernel = kernel
        self.heap = heap
        self.technique = Technique(technique)
        self.reverse_map_cache = reverse_map_cache
        self._tracker: DirtyPageTracker | None = None
        self._did_full = False
        self.cycles: list = []  # one report per collect

    def start(self) -> None:
        """Start the tracking technique on the heap's process."""
        if self._tracker is not None:
            raise GcError(f"{type(self).__name__} already started")
        kwargs = {}
        if self.technique is Technique.SPML:
            kwargs["reverse_map_cache"] = self.reverse_map_cache
        self._tracker = make_tracker(
            self.technique, self.kernel, self.heap.process, **kwargs
        )
        self._tracker.start()

    def stop(self) -> None:
        if self._tracker is not None:
            self._tracker.stop()
            self._tracker = None

    def __enter__(self) -> "HeapScanner":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _collect_dirty(self) -> np.ndarray:
        """The technique's dirty pages since the last cycle (re-arms it)."""
        if self._tracker is None:
            raise GcError("collect before start")
        return self._tracker.collect()

    def _in_heap(self, vpns: np.ndarray) -> np.ndarray:
        """``vpns`` restricted to the heap VMA."""
        vma = self.heap.vma
        return vpns[(vpns >= vma.start_vpn) & (vpns < vma.end_vpn)]

    def _read_present(self, pages: np.ndarray) -> None:
        """Read the scanned ``pages`` that are still mapped."""
        pages = pages[self.heap.process.space.pt.present_mask(pages)]
        if pages.size:
            self.kernel.access(self.heap.process, pages, False)

    def _charge_scan(self, n_objs: int, n_pages: int, event: str) -> None:
        costs = self.kernel.costs.params
        us = (
            n_objs * costs.heap_scan_us_per_obj
            + n_pages * costs.heap_scan_us_per_page
        )
        self.kernel.clock.charge(us, World.TRACKER, event, n_objs)


class BoehmGc(HeapScanner):
    """One collector instance per heap."""

    cycles: list[GcCycleReport]

    def __init__(
        self,
        kernel: GuestKernel,
        heap: GcHeap,
        technique: Technique | str = Technique.PROC,
        params: GcParams | None = None,
        reverse_map_cache: bool = True,
    ) -> None:
        super().__init__(kernel, heap, technique, reverse_map_cache)
        self.params = params if params is not None else GcParams()

    # ------------------------------------------------------------------
    def maybe_collect(self) -> GcCycleReport | None:
        """Collect if the allocation threshold has been crossed."""
        if self.heap.allocated_bytes_since_gc >= self.params.threshold_bytes:
            return self.collect()
        return None

    def collect(self) -> GcCycleReport:
        idx = len(self.cycles)
        full = not self._did_full or (
            self.params.full_every > 0 and idx % self.params.full_every == 0
        )
        t0 = self.kernel.clock.now_us
        if full:
            report = self._full_collect(idx)
        else:
            report = self._minor_collect(idx)
        report.pause_us = self.kernel.clock.now_us - t0
        self.heap.allocated_bytes_since_gc = 0
        self.cycles.append(report)
        return report

    # ------------------------------------------------------------------
    def _charge_sweep(self, n_objs: int) -> None:
        self.kernel.clock.charge(
            n_objs * self.kernel.costs.params.gc_sweep_us_per_obj,
            World.TRACKER,
            EV_GC_SWEEP,
            n_objs,
        )

    def _full_collect(self, idx: int) -> GcCycleReport:
        heap = self.heap
        # Reset the tracking interval; with SPML this is where the big
        # first-cycle reverse mapping lands (Fig. 5).  The report counts
        # every collected page, not only the heap's.
        dirty = self._collect_dirty()
        result = full_mark(heap)
        self._read_present(result.scanned_pages)
        self._charge_scan(
            result.n_visited, int(result.scanned_pages.size), EV_GC_SCAN
        )
        # The sweep walks every live object; full_mark marks live ones only.
        alive = heap.alive[: heap._n_ids]
        n_live = int(np.count_nonzero(alive))
        n_freed = heap.free_objects(np.flatnonzero(alive & ~result.marked))
        self._charge_sweep(n_live)
        heap.gen[np.flatnonzero(result.marked)] = GEN_OLD
        heap.compact_edges()
        self._did_full = True
        return GcCycleReport(
            index=idx,
            kind="full",
            pause_us=0.0,
            n_visited=result.n_visited,
            n_scanned_pages=int(result.scanned_pages.size),
            n_freed=n_freed,
            n_dirty_pages=int(dirty.size),
            live_after=heap.n_live,
        )

    def _minor_collect(self, idx: int) -> GcCycleReport:
        heap = self.heap
        dirty = self._in_heap(self._collect_dirty())
        result = minor_mark(heap, dirty)
        scan_pages = unique_pages(
            np.concatenate([result.scanned_pages, dirty]),
            heap.process.space.n_pages,
        )
        self._read_present(scan_pages)
        self._charge_scan(result.n_visited, int(scan_pages.size), EV_GC_SCAN)
        n = heap._n_ids
        young = np.flatnonzero(heap.alive[:n] & (heap.gen[:n] == GEN_YOUNG))
        dead = young[~result.marked[young]]
        n_freed = heap.free_objects(dead)
        self._charge_sweep(int(young.size))
        survivors = young[result.marked[young]]
        heap.gen[survivors] = GEN_OLD
        return GcCycleReport(
            index=idx,
            kind="minor",
            pause_us=0.0,
            n_visited=result.n_visited,
            n_scanned_pages=int(scan_pages.size),
            n_freed=n_freed,
            n_dirty_pages=int(dirty.size),
            live_after=heap.n_live,
        )

    # ------------------------------------------------------------------
    @property
    def total_gc_us(self) -> float:
        return sum(c.pause_us for c in self.cycles)
