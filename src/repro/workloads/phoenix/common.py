"""Shared machinery for the Phoenix (MapReduce) application models.

Each app reproduces the *page-level behaviour* that dirty-page tracking
observes: its Table III memory footprint, which regions it reads and
writes, in what order and proportion, and a calibrated amount of its own
compute per page touched (DESIGN.md: the substitution preserves footprint,
write pattern and write/compute ratio).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.base import MemoryContext, Workload

__all__ = ["PhoenixApp", "BATCH_PAGES"]

BATCH_PAGES = 16384


@dataclass
class PhoenixApp(Workload):
    """Base for the six Phoenix applications."""

    name: str = "phoenix"

    # -- helpers -------------------------------------------------------
    def _scaled(self, n: int, minimum: int = 1) -> int:
        return max(minimum, int(round(n * self.scale)))

    def _sequential_read(
        self,
        ctx: MemoryContext,
        region,
        compute_factor: float,
        on_batch=None,
    ) -> None:
        """Stream over a region batch-wise, paying compute per page.

        The checkpoint opportunity is per batch: it is the GC trigger
        point and the experiment harness's collect hook.
        """
        for lo in range(0, region.n_pages, BATCH_PAGES):
            hi = min(lo + BATCH_PAGES, region.n_pages)
            ctx.read(region, np.arange(lo, hi))
            self._touch_cost(ctx, hi - lo, compute_factor)
            if on_batch is not None:
                on_batch(lo, hi)
            ctx.checkpoint_opportunity()

    def _require(self, *names: str) -> list:
        out = []
        for n in names:
            if n not in self.params:
                raise WorkloadError(f"{self.name}: missing param {n!r}")
            out.append(self.params[n])
        return out
