"""Shared machinery for the tkrzw in-memory key-value engine models.

Each engine reproduces its Table III footprint and the page-level write
behaviour of ``set`` request storms: ``n_iter`` operations partitioned
over ``threads`` interleaved streams, where each operation writes the
record's page plus occasional structure pages, with a per-op compute cost
calibrated per engine (tree rebalancing, hashing, zlib compression, ...).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.calibration import PAGES_PER_MB
from repro.errors import WorkloadError
from repro.hw.pageset import unique_pages
from repro.workloads.base import MemoryContext, Workload

__all__ = ["KvEngine", "OPS_PER_BATCH"]

OPS_PER_BATCH = 100_000


@dataclass
class KvEngine(Workload):
    """Base for the five in-memory engines."""

    mem_mb: float = 1.0
    scale: float = 1.0
    name: str = "tkrzw"
    #: Own compute per operation, us.
    us_per_op: float = 4.0

    @classmethod
    def from_config(cls, cfg, scale: float = 1.0):
        """Build the engine from a Table III cell (scale shrinks n_iter)."""
        return cls(
            config_name=cfg.config,
            mem_mb=cfg.mem_mb,
            scale=scale,
            params=dict(cfg.params),
        )

    @property
    def footprint_pages(self) -> int:
        return int(round(self.mem_mb * PAGES_PER_MB))

    @property
    def n_iter(self) -> int:
        if "n_iter" not in self.params:
            raise WorkloadError(f"{self.name}: missing n_iter")
        return max(1, int(self.params["n_iter"] * self.scale))

    # -- per-engine hook -----------------------------------------------
    def target_pages(
        self, rng: np.random.Generator, op_index: int, n_ops: int, n_pages: int
    ) -> np.ndarray:
        """Page offsets written by a batch of ``n_ops`` operations."""
        raise NotImplementedError

    def _run(self, ctx: MemoryContext) -> None:
        arena = ctx.alloc_region(max(1, self.footprint_pages - 4), "arena")
        # crc32, not hash(): str hashes are salted per process
        # (PYTHONHASHSEED), which made runs non-reproducible.
        rng = np.random.default_rng(zlib.crc32(self.name.encode()) & 0xFFFF)
        done = 0
        while done < self.n_iter:
            n_ops = min(OPS_PER_BATCH, self.n_iter - done)
            offsets = unique_pages(
                self.target_pages(rng, done, n_ops, arena.n_pages), arena.n_pages
            )
            ctx.write(arena, offsets)
            ctx.compute(n_ops * self.us_per_op)
            done += n_ops
            ctx.checkpoint_opportunity()
