"""GCBench: the classic GC torture test (Boehm/Ellis/Kovac).

Faithful port of the benchmark the paper uses for Boehm (§VI-A, Table III:
*array size*, *lived tree depth*, *stretch tree depth*):

1. build and drop a *stretch* tree (max depth) to size the heap;
2. build a *long-lived* perfect binary tree and a long-lived double
   array (every other element set);
3. for each depth d = 4, 6, ... max: allocate ``NumIters(d)`` temporary
   trees top-down and bottom-up, dropping them all — the allocation storm
   the collector must keep up with.

Tree construction is vectorised: a batch of k perfect trees of depth d is
allocated as one contiguous id block and wired level-by-level in heap
order.  ``scale`` multiplies the iteration counts (tree shapes stay
faithful) so tests and quick benches can run the Table III configurations
in bounded time.

GCBench only makes sense on a GC heap: it requires a
:class:`~repro.workloads.base.GcContext`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.calibration import PAGE_SIZE
from repro.errors import WorkloadError
from repro.workloads.base import GcContext, MemoryContext, Workload

__all__ = ["GcBench", "build_trees_batch"]

NODE_BYTES = 32
MIN_TREE_DEPTH = 4
#: Nodes allocated per construction batch (keeps numpy batches large).
BATCH_NODES = 100_000


def tree_size(depth: int) -> int:
    """Nodes in a perfect binary tree of the given depth."""
    return (1 << (depth + 1)) - 1


def num_iters(stretch_depth: int, depth: int) -> int:
    """GCBench's iteration count: allocate ~2 stretch-trees worth."""
    return max(1, 2 * tree_size(stretch_depth) // tree_size(depth))


def build_trees_batch(heap, k: int, depth: int) -> np.ndarray:
    """Allocate and wire ``k`` perfect binary trees; returns root ids."""
    per = tree_size(depth)
    ids = heap.alloc(k * per, NODE_BYTES).reshape(k, per)
    n_internal = (per - 1) // 2
    if n_internal:
        # Node j's children are 2j+1 and 2j+2: each parent twice in a
        # row, left child first, so ascending ids need no sort.
        heap.set_refs(
            np.repeat(ids[:, :n_internal], 2, axis=1).ravel(),
            ids[:, 1:2 * n_internal + 1].ravel(),
        )
    return ids[:, 0]


@dataclass
class GcBench(Workload):
    array_size: int = 500_000
    long_lived_depth: int = 16
    stretch_depth: int = 18
    mem_mb: float = 15.07
    name: str = "gcbench"

    @classmethod
    def from_config(cls, cfg, scale: float = 1.0):
        """Build GCBench from a Table III cell (scale shrinks NumIters)."""
        return cls(
            config_name=cfg.config,
            array_size=cfg.params["array_size"],
            long_lived_depth=cfg.params["long_lived_depth"],
            stretch_depth=cfg.params["stretch_depth"],
            mem_mb=cfg.mem_mb,
            scale=scale,
            params=dict(cfg.params),
        )

    def _run(self, ctx: MemoryContext) -> None:
        if not isinstance(ctx, GcContext):
            raise WorkloadError("GCBench requires a GC heap (GcContext)")
        heap, gc = ctx.heap, ctx.gc

        def make_dropped_trees(total: int, depth: int) -> None:
            """Temporary trees: allocated, never rooted, become garbage."""
            per = tree_size(depth)
            batch = max(1, BATCH_NODES // per)
            made = 0
            while made < total:
                k = min(batch, total - made)
                build_trees_batch(heap, k, depth)
                ctx.compute(k * per * 0.02)  # Populate()'s own work
                made += k
                gc.maybe_collect()

        # 1. Stretch tree, immediately dropped.
        make_dropped_trees(1, self.stretch_depth)
        gc.maybe_collect()

        # 2. Long-lived structures.
        long_lived_root = build_trees_batch(heap, 1, self.long_lived_depth)
        heap.add_roots(long_lived_root)
        array_pages = max(1, self.array_size * 8 // PAGE_SIZE)
        array_ids = heap.alloc(array_pages, PAGE_SIZE)
        heap.add_roots(array_ids)
        heap.write_objs(array_ids)  # "set every other element"
        ctx.compute(self.array_size * 0.002)
        gc.maybe_collect()

        # 3. The allocation storm.
        for depth in range(MIN_TREE_DEPTH, self.long_lived_depth + 1, 2):
            iters = max(1, int(num_iters(self.stretch_depth, depth) * self.scale))
            # Top-down and bottom-up construction allocate the same nodes;
            # the page-level behaviour is identical, so both halves run
            # through the batch builder.
            make_dropped_trees(iters, depth)
            make_dropped_trees(iters, depth)

        # Long-lived tree/array must have survived (checked by tests).
        if not heap.alive[long_lived_root].all():
            raise WorkloadError("GCBench long-lived tree was collected")
