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

__all__ = ["GcParams", "GcCycleReport", "BoehmGc"]

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


class BoehmGc:
    """One collector instance per heap."""

    def __init__(
        self,
        kernel: GuestKernel,
        heap: GcHeap,
        technique: Technique | str = Technique.PROC,
        params: GcParams | None = None,
        technique_kwargs: dict | None = None,
    ) -> None:
        self.kernel = kernel
        self.heap = heap
        self.technique = (
            Technique(technique) if isinstance(technique, str) else technique
        )
        self.params = params if params is not None else GcParams()
        #: Extra tracker-constructor arguments (ablation hook).
        self.technique_kwargs = technique_kwargs
        self._tracker: DirtyPageTracker | None = None
        self.cycles: list[GcCycleReport] = []
        self._did_full = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin incremental collection (starts the tracking technique)."""
        if self._tracker is not None:
            raise GcError("collector already started")
        kwargs = {}
        if self.technique is Technique.SPML:
            # Paper §VI-E: Boehm reuses the reverse-mapped addresses
            # collected during the first cycle.
            kwargs["reverse_map_cache"] = True
        if self.technique_kwargs:
            kwargs.update(self.technique_kwargs)
        self._tracker = make_tracker(
            self.technique, self.kernel, self.heap.process, **kwargs
        )
        self._tracker.start()

    def stop(self) -> None:
        if self._tracker is not None:
            self._tracker.stop()
            self._tracker = None

    def __enter__(self) -> "BoehmGc":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def maybe_collect(self) -> GcCycleReport | None:
        """Collect if the allocation threshold has been crossed."""
        if self.heap.allocated_bytes_since_gc >= self.params.threshold_bytes:
            return self.collect()
        return None

    def collect(self) -> GcCycleReport:
        if self._tracker is None:
            raise GcError("collect before start")
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
    def _charge_scan(self, n_objs: int, n_pages: int) -> None:
        costs = self.kernel.costs.params
        us = (
            n_objs * costs.heap_scan_us_per_obj
            + n_pages * costs.heap_scan_us_per_page
        )
        self.kernel.clock.charge(us, World.TRACKER, EV_GC_SCAN, n_objs)

    def _charge_sweep(self, n_objs: int) -> None:
        self.kernel.clock.charge(
            n_objs * self.kernel.costs.params.gc_sweep_us_per_obj,
            World.TRACKER,
            EV_GC_SWEEP,
            n_objs,
        )

    def _full_collect(self, idx: int) -> GcCycleReport:
        heap = self.heap
        assert self._tracker is not None
        # Reset the tracking interval; with SPML this is where the big
        # first-cycle reverse mapping lands (Fig. 5).
        dirty = self._tracker.collect()
        result = full_mark(heap)
        if result.scanned_pages.size:
            self.kernel.access(heap.process, result.scanned_pages, False)
        self._charge_scan(result.n_visited, int(result.scanned_pages.size))
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
            n_dirty_pages=int(np.asarray(dirty).size),
            live_after=heap.n_live,
        )

    def _minor_collect(self, idx: int) -> GcCycleReport:
        heap = self.heap
        assert self._tracker is not None
        dirty = self._tracker.collect()
        # Restrict to heap pages still mapped.
        dirty = dirty[
            (dirty >= heap.vma.start_vpn) & (dirty < heap.vma.end_vpn)
        ]
        result = minor_mark(heap, dirty)
        scan_pages = unique_pages(
            np.concatenate([result.scanned_pages, dirty]),
            heap.process.space.n_pages,
        )
        present = heap.process.space.pt.present_mask(scan_pages)
        scan_present = scan_pages[present]
        if scan_present.size:
            self.kernel.access(heap.process, scan_present, False)
        self._charge_scan(result.n_visited, int(scan_pages.size))
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
