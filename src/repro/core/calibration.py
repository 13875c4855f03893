"""Calibration data: the paper's measured micro-costs (Table Va / Vb).

The simulator is execution-driven — page tables are walked, PML buffers
fill, vmexits fire — but converting those micro-events into simulated time
requires unit costs.  We take them from the paper's own measurements on the
DELL i7-8565U testbed (§VI-C, Table Va and Table Vb), so the reproduced
tables and figures inherit their shape from *mechanism counts × published
unit costs*.

Two kinds of calibration values exist:

* **Size-agnostic constants** (Table Va): context switch, vmread/vmwrite,
  hypercall and ioctl costs.  Exposed as module constants and bundled into
  :class:`~repro.core.costs.CostParams`.

* **Size-dependent curves** (Table Vb): total cost of an operation as a
  function of the tracked process's memory size (1 MB .. 1 GB), for metrics
  M5, M6, M14, M15, M16, M17, M18.  Exposed as :class:`SizeCurve`, which
  interpolates within the published range and extrapolates linearly with
  the last segment's slope beyond it.

The quadratic behaviour of reverse mapping (M17) — each logged GPA requires
scanning ``/proc/PID/pagemap``, so cost grows with (dirty pages ×
address-space pages) — is captured directly by the published curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "PAGE_SIZE",
    "PAGES_PER_MB",
    "PML_BUFFER_ENTRIES",
    "TABLE_VA_US",
    "TABLE_VB_SIZES_MB",
    "TABLE_VB_MS",
    "SizeCurve",
    "size_curves",
    "mb_to_pages",
]

#: Bytes per page; the paper (and x86) use 4 KiB pages throughout.
PAGE_SIZE = 4096

#: 4 KiB pages per MiB of memory.
PAGES_PER_MB = (1024 * 1024) // PAGE_SIZE  # 256

#: A PML buffer is one 4 KiB page of 64-bit entries => 512 logged addresses
#: (paper §II-B).
PML_BUFFER_ENTRIES = 512

# ---------------------------------------------------------------------------
# Table Va — size-agnostic costs, microseconds
# ---------------------------------------------------------------------------
TABLE_VA_US: dict[str, float] = {
    # M1: user <-> kernel context switch
    "m1_context_switch": 0.315,
    # M3: ioctl initialising PML through the OoH module (SPML & EPML)
    "m3_ioctl_init_pml": 5651.0,
    # M4: ioctl deactivating PML through the OoH module (SPML & EPML)
    "m4_ioctl_deact_pml": 2816.0,
    # M7/M8: vmread / vmwrite on the shadow VMCS (EPML)
    "m7_vmread": 0.936,
    "m8_vmwrite": 0.801,
    # M9: hypercall initialising PML (SPML)
    "m9_hc_init_pml": 5495.0,
    # M10: hypercall initialising PML + VMCS shadowing (EPML)
    "m10_hc_init_pml_shadow": 5878.0,
    # M11: hypercall deactivating PML (SPML)
    "m11_hc_deact_pml": 2060.0,
    # M12: hypercall deactivating PML + VMCS shadowing (EPML)
    "m12_hc_deact_pml_shadow": 2755.0,
    # M13: enable-PML-logging hypercall issued at every schedule-in (SPML)
    "m13_enable_logging": 0.3,
}

# ---------------------------------------------------------------------------
# Table Vb — size-dependent totals, milliseconds, at these memory sizes
# ---------------------------------------------------------------------------
TABLE_VB_SIZES_MB: tuple[int, ...] = (1, 10, 50, 100, 250, 500, 1024)

TABLE_VB_MS: dict[str, tuple[float, ...]] = {
    # M5: page-fault handling in kernel space (/proc soft-dirty faults)
    "m5_pf_kernel": (0.003, 0.3, 1.68, 3.34, 8.39, 16.79, 33.58),
    # M6: page-fault handling in userspace (ufd write-protect faults)
    "m6_pf_user": (2.5, 27.3, 152.3, 347.1, 882.8, 1585.0, 3483.0),
    # M14: disable-PML-logging hypercall (SPML schedule-out path)
    "m14_disable_logging": (0.042, 0.047, 0.138, 0.156, 0.189, 0.203, 0.208),
    # M15: echo 4 > /proc/PID/clear_refs (PTE walk + TLB flush)
    "m15_clear_refs": (0.032, 0.0912, 0.174, 0.288, 0.613, 1.153, 2.234),
    # M16: userspace page-table walk (parsing /proc/PID/pagemap)
    "m16_pt_walk_user": (1.912, 14.479, 41.832, 82.289, 161.973, 307.109, 594.187),
    # M17: GPA -> GVA reverse mapping (SPML collection phase)
    "m17_reverse_map": (6.183, 24.653, 85.117, 255.437, 1211.0, 4123.0, 15738.0),
    # M18: PML-buffer -> ring-buffer copy
    "m18_rb_copy": (0.003, 0.01, 0.03, 0.048, 0.109, 0.383, 0.671),
}


def mb_to_pages(mb: float) -> int:
    """Convert a memory size in MiB to a page count."""
    return int(round(mb * PAGES_PER_MB))


@dataclass(frozen=True)
class SizeCurve:
    """Total operation cost (us) as a function of touched page count.

    Interpolates the published measurements; extrapolates with the final
    segment's slope above the measured range and proportionally below it.
    """

    name: str
    pages: np.ndarray  # ascending page counts
    total_us: np.ndarray  # total cost at each page count, microseconds
    #: ``total`` memo for scalar integer page counts.  Callers price
    #: operations at a VM's ``mem_pages``, so the keys are the handful of
    #: VM sizes a run builds and the memo stays small.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.pages) != len(self.total_us) or len(self.pages) < 2:
            raise ConfigurationError(f"curve {self.name!r}: need >= 2 points")
        if not np.all(np.diff(self.pages) > 0):
            raise ConfigurationError(f"curve {self.name!r}: pages must ascend")

    def total(self, n_pages: int | np.ndarray) -> float | np.ndarray:
        """Total cost in us for an operation spanning ``n_pages`` pages."""
        if isinstance(n_pages, (int, np.integer)):
            out = self._memo.get(n_pages)
            if out is None:
                out = self._memo[n_pages] = self._total(n_pages)
            return out
        return self._total(n_pages)

    def _total(self, n_pages: int | np.ndarray) -> float | np.ndarray:
        n = np.asarray(n_pages, dtype=np.float64)
        lo_p, hi_p = self.pages[0], self.pages[-1]
        out = np.interp(n, self.pages, self.total_us)
        # Below range: scale the first point proportionally (cost -> 0 with
        # size, matching every metric's behaviour).
        below = n < lo_p
        if np.any(below):
            out = np.where(below, self.total_us[0] * n / lo_p, out)
        # Above range: extend the last segment's slope.
        above = n > hi_p
        if np.any(above):
            slope = (self.total_us[-1] - self.total_us[-2]) / (
                self.pages[-1] - self.pages[-2]
            )
            out = np.where(above, self.total_us[-1] + slope * (n - hi_p), out)
        if np.ndim(n_pages) == 0:
            return float(out)
        return out

    def unit(self, n_pages: int) -> float:
        """Average per-page cost in us when the operation spans ``n_pages``."""
        if n_pages <= 0:
            return 0.0
        return float(self.total(n_pages)) / float(n_pages)


def size_curves() -> dict[str, SizeCurve]:
    """Build :class:`SizeCurve` objects for every Table Vb metric."""
    pages = np.array([mb_to_pages(mb) for mb in TABLE_VB_SIZES_MB], dtype=np.float64)
    curves: dict[str, SizeCurve] = {}
    for name, totals_ms in TABLE_VB_MS.items():
        totals_us = np.asarray(totals_ms, dtype=np.float64) * 1000.0
        curves[name] = SizeCurve(name=name, pages=pages, total_us=totals_us)
    return curves
