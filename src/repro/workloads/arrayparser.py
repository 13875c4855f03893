"""The paper's micro-benchmark (Listing 1): the array parser.

A process mlocks an array of page-aligned buffers and repeatedly writes
one word into every page, in order.  Its entire cost profile is page
writes, which makes it the cleanest probe of a tracking technique's
per-page overhead — it drives Table I, Table Vb, Fig. 3 and Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.base import MemoryContext, Workload

__all__ = ["ArrayParser"]

#: Page batch size: one quantum of the parser's inner loop.
BATCH_PAGES = 16384


@dataclass
class ArrayParser(Workload):
    """Write one word per page over ``mem_mb`` of memory, ``passes`` times."""

    passes: int = 1
    name: str = "arrayparser"

    def __post_init__(self) -> None:
        if self.mem_mb <= 0 or self.passes < 1:
            raise WorkloadError("mem_mb must be > 0 and passes >= 1")

    def _run(self, ctx: MemoryContext) -> None:
        region = ctx.alloc_region(self.footprint_pages, "array")
        # mlockall(): the first pass faults everything in (Listing 1 pins
        # pages) and takes the full walks.
        for i in range(self.passes):
            if i:
                ctx.checkpoint_opportunity()
            for lo in range(0, region.n_pages, BATCH_PAGES):
                hi = min(lo + BATCH_PAGES, region.n_pages)
                ctx.write(region, np.arange(lo, hi))
                self._touch_cost(ctx, hi - lo)
