"""/proc/PID emulation: the soft-dirty tracking interface.

Reproduces the two operations the paper's /proc baseline uses (§III-B):

* ``clear_refs(4)`` — ``echo 4 > /proc/PID/clear_refs``: clears every
  PTE's soft-dirty bit, write-protects the PTEs, and flushes the TLB.
  Cost: the M15 curve, charged to the tracker (it is part of
  ``E(C_/proc)``, Formula 2).
* ``pagemap_soft_dirty`` — parse ``/proc/PID/pagemap`` and return the
  VPNs whose soft-dirty bit (bit 55) is set.  Cost: the M16 curve
  (userspace page-table walk), also tracker-side.

The write faults that re-set soft-dirty bits during monitoring are handled
by :mod:`repro.guest.faults` and charged per-fault (M5, kernel world) —
those belong to ``I(C_/proc, C_tked)``, not to the tracker.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.clock import SimClock, World
from repro.core.costs import (
    EV_CLEAR_REFS,
    EV_PT_WALK_USER,
    EV_TLB_FLUSH,
    CostModel,
)
from repro.guest.process import Process
from repro.hw.pagetable import PTE_SOFT_DIRTY, PTE_UFD_WP, PTE_WRITABLE

__all__ = ["ProcFs"]


class ProcFs:
    """The /proc view over a set of guest processes."""

    def __init__(self, clock: SimClock, costs: CostModel, kernel) -> None:
        self.clock = clock
        self.costs = costs
        #: Owning guest kernel, held weakly (the kernel owns this view);
        #: TLB invalidations use its SMP-correct flush of every vCPU.
        self._kernel = weakref.ref(kernel)

    def clear_refs(self, process: Process) -> int:
        """``echo 4 > /proc/PID/clear_refs``; returns pages affected."""
        pt = process.space.pt
        mapped = pt.mapped_vpns()
        pt.clear_flags(mapped, PTE_SOFT_DIRTY)
        # Write-protect so the next write faults; ufd-armed pages keep
        # their (stricter) protection.
        not_ufd = mapped[~pt.flag_mask(mapped, PTE_UFD_WP)]
        pt.clear_flags(not_ufd, PTE_WRITABLE)
        self._kernel().tlb_flush_all(process)
        n = max(int(process.space.n_pages), 1)
        self.clock.charge(self.costs.clear_refs_us(n), World.TRACKER, EV_CLEAR_REFS)
        self.clock.count_only(EV_TLB_FLUSH)
        return int(mapped.size)

    def pagemap_soft_dirty(self, process: Process) -> np.ndarray:
        """Parse pagemap; return VPNs with the soft-dirty bit set."""
        pt = process.space.pt
        n = max(int(process.space.n_pages), 1)
        self.clock.charge(
            self.costs.pt_walk_user_us(n), World.TRACKER, EV_PT_WALK_USER
        )
        return pt.vpns_with_flag(PTE_SOFT_DIRTY)

    def pagemap_pfns(self, process: Process, vpns: np.ndarray) -> np.ndarray:
        """GPFNs for given VPNs (pagemap's PFN field; used by SPML's
        reverse mapping which scans this file).  Cost charged by callers
        per their access pattern (M16/M17)."""
        return process.space.pt.translate(vpns)
