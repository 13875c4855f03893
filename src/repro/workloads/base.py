"""Workload API: memory contexts and the workload base class.

A workload is a deterministic generator of page-access batches plus its
own compute time.  It runs against a :class:`MemoryContext`, which
abstracts how memory is obtained:

* :class:`FlatContext` — plain anonymous VMAs (the CRIU / micro-benchmark
  experiments track processes with ordinary memory);
* :class:`GcContext` — regions are allocated as page-sized objects on a
  Boehm heap, and the context gives the collector allocation-triggered
  collection opportunities (the Boehm experiments link the same Phoenix
  apps against the GC, paper §VI-E).

This duality mirrors the paper: the *same* applications appear in both
the CRIU and the Boehm evaluations; only the memory substrate differs.
Both contexts take the same calls, one batch at a time (``write`` or
``read``, then ``compute``), so every workload has a single driver path.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.core.calibration import PAGES_PER_MB
from repro.errors import WorkloadError
from repro.guest.kernel import GuestKernel
from repro.guest.process import Process

__all__ = [
    "Region",
    "MemoryContext",
    "FlatContext",
    "GcContext",
    "Workload",
]

#: Default cost of the workload's own work per page it touches.  Chosen so
#: the 1 GB array-parser pass runs ~200 ms untracked, consistent with the
#: overhead ratios of the paper's Table I (DESIGN.md §5).
DEFAULT_US_PER_PAGE = 0.76


@dataclass
class Region:
    """A contiguous page region owned by a workload."""

    name: str
    vpns: np.ndarray  # absolute VPNs, ascending
    #: GC mode only: one page-sized object id per page.
    obj_ids: np.ndarray | None = None

    @property
    def n_pages(self) -> int:
        return int(self.vpns.size)


class MemoryContext(abc.ABC):
    """How a workload touches memory."""

    def __init__(self, kernel: GuestKernel, process: Process) -> None:
        self.kernel = kernel
        self.process = process
        self.rng = np.random.default_rng(0xC0FFEE)

    @abc.abstractmethod
    def alloc_region(self, n_pages: int, name: str = "region") -> Region: ...

    @abc.abstractmethod
    def write(self, region: Region, offsets: np.ndarray) -> None:
        """Write the pages at ``offsets`` within the region."""

    @abc.abstractmethod
    def read(self, region: Region, offsets: np.ndarray) -> None: ...

    def compute(self, us: float) -> None:
        """The workload's own CPU work."""
        self.kernel.compute(self.process, us)

    def checkpoint_opportunity(self) -> None:
        """Hook between phases (GC trigger point in GC mode)."""


class FlatContext(MemoryContext):
    """Anonymous VMAs; first touch demand-pages."""

    def alloc_region(self, n_pages: int, name: str = "region") -> Region:
        vma = self.process.space.add_vma(n_pages, name)
        return Region(name=name, vpns=vma.vpns())

    def write(self, region: Region, offsets: np.ndarray) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0:
            return
        self.kernel.access(self.process, region.vpns[offsets], True)

    def read(self, region: Region, offsets: np.ndarray) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0:
            return
        self.kernel.access(self.process, region.vpns[offsets], False)


class GcContext(MemoryContext):
    """Regions are page-sized GC objects; writes go through the heap.

    Besides its long-lived regions, a Boehm-linked application allocates
    short-lived temporaries (keys, strings, intermediate tuples) as it
    works; ``temp_objs_per_write_page`` models that steady allocation,
    which is what drives repeated GC cycles in the paper's Phoenix+Boehm
    runs (2..23 cycles, §VI-E).
    """

    def __init__(
        self,
        kernel: GuestKernel,
        process: Process,
        heap,
        gc,
        temp_objs_per_write_page: float = 0.5,
        temp_obj_bytes: int = 64,
    ) -> None:
        super().__init__(kernel, process)
        self.heap = heap
        self.gc = gc
        self.temp_objs_per_write_page = temp_objs_per_write_page
        self.temp_obj_bytes = temp_obj_bytes

    def alloc_region(self, n_pages: int, name: str = "region") -> Region:
        from repro.core.calibration import PAGE_SIZE

        ids = self.heap.alloc(n_pages, PAGE_SIZE)
        self.heap.add_roots(ids)  # workload data is rooted
        vpns = self.heap.obj_page[ids].copy()
        order = np.argsort(vpns)
        return Region(name=name, vpns=vpns[order], obj_ids=ids[order])

    def write(self, region: Region, offsets: np.ndarray) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0:
            return
        assert region.obj_ids is not None
        self.heap.write_objs(region.obj_ids[offsets])
        n_temps = int(offsets.size * self.temp_objs_per_write_page)
        if n_temps:
            # Short-lived temporaries: never rooted, young garbage.
            self.heap.alloc(n_temps, self.temp_obj_bytes)

    def read(self, region: Region, offsets: np.ndarray) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0:
            return
        assert region.obj_ids is not None
        self.heap.read_objs(region.obj_ids[offsets])

    def checkpoint_opportunity(self) -> None:
        self.gc.maybe_collect()


@dataclass
class Workload(abc.ABC):
    """Base class: subclasses define ``_run``."""

    config_name: str = "small"
    us_per_page: float = DEFAULT_US_PER_PAGE
    #: Extra knobs from the config table.
    params: dict = field(default_factory=dict)

    name: str = "workload"
    #: Memory footprint (Table III), MiB.
    mem_mb: float = 1.0
    #: Multiplies the iteration count; the footprint stays.
    scale: float = 1.0

    @classmethod
    def from_config(cls, cfg, scale: float = 1.0):
        """Build the app from a Table III cell (see configs.TABLE_III)."""
        return cls(
            config_name=cfg.config,
            mem_mb=cfg.mem_mb,
            scale=scale,
            params=dict(cfg.params),
        )

    @property
    def footprint_pages(self) -> int:
        """Pages the workload touches (sizes the process address space)."""
        return int(round(self.mem_mb * PAGES_PER_MB))

    def run(self, ctx: MemoryContext) -> None:
        """Execute the workload against a memory context."""
        if self.footprint_pages <= 0:
            raise WorkloadError(f"{self.name}: empty footprint")
        self._run(ctx)

    @abc.abstractmethod
    def _run(self, ctx: MemoryContext) -> None: ...

    # -- helpers -----------------------------------------------------------
    def _touch_cost(self, ctx: MemoryContext, n_pages: int, factor: float = 1.0
                    ) -> None:
        ctx.compute(n_pages * self.us_per_page * factor)
