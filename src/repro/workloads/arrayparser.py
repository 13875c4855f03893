"""The paper's micro-benchmark (Listing 1): the array parser.

A process mlocks an array of page-aligned buffers and repeatedly writes
one word into every page, in order.  Its entire cost profile is page
writes, which makes it the cleanest probe of a tracking technique's
per-page overhead — it drives Table I, Table Vb, Fig. 3 and Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.calibration import PAGES_PER_MB
from repro.errors import WorkloadError
from repro.guest.plan import PlanBuilder
from repro.workloads.base import MemoryContext, Workload

__all__ = ["ArrayParser"]

#: Page batch size: one quantum of the parser's inner loop.
BATCH_PAGES = 16384


@dataclass
class ArrayParser(Workload):
    """Write one word per page over ``mem_mb`` of memory, ``passes`` times."""

    mem_mb: float = 1.0
    passes: int = 1
    name: str = "arrayparser"

    def __post_init__(self) -> None:
        if self.mem_mb <= 0 or self.passes < 1:
            raise WorkloadError("mem_mb must be > 0 and passes >= 1")

    @property
    def footprint_pages(self) -> int:
        return int(round(self.mem_mb * PAGES_PER_MB))

    def _run(self, ctx: MemoryContext) -> None:
        region = ctx.alloc_region(self.footprint_pages, "array")
        if ctx.supports_plans:
            # One frozen plan, built once and run every pass.
            b = PlanBuilder()
            for lo in range(0, region.n_pages, BATCH_PAGES):
                hi = min(lo + BATCH_PAGES, region.n_pages)
                b.write(region.vpns[lo:hi])
                b.compute((hi - lo) * self.us_per_page)
            plan = b.build()
            # mlockall(): fault everything in up front (Listing 1 pins
            # pages) — the first execution takes the full walks.
            ctx.run_plan(plan)
            for _ in range(self.passes - 1):
                ctx.checkpoint_opportunity()
                ctx.run_plan(plan)
            return
        # Per-batch fallback (GC substrate routes touches via the heap).
        for lo in range(0, region.n_pages, BATCH_PAGES):
            hi = min(lo + BATCH_PAGES, region.n_pages)
            ctx.write(region, np.arange(lo, hi))
            self._touch_cost(ctx, hi - lo)
        for _ in range(self.passes - 1):
            ctx.checkpoint_opportunity()
            for lo in range(0, region.n_pages, BATCH_PAGES):
                hi = min(lo + BATCH_PAGES, region.n_pages)
                ctx.write(region, np.arange(lo, hi))
                self._touch_cost(ctx, hi - lo)
