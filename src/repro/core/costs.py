"""Cost model: converts simulator micro-events into simulated time.

Every architectural mechanism in the simulator (page fault, vmexit,
hypercall, vmread/vmwrite, PML-buffer copy, reverse mapping, ...) charges
the :class:`~repro.core.clock.SimClock` through a :class:`CostModel`.  Unit
costs come from the paper's Table Va/Vb via
:mod:`repro.core.calibration`; a handful of costs the paper does not
itemise (raw vmexit round trip, posted-interrupt delivery, hypercall entry)
use conventional microarchitecture values.  This module is the one home of
every simulated unit cost, and the table is read-only: calibration is
pinned (only a fleet ``Link`` or ``LiveMigration`` may carry its own
network rate, DESIGN.md §5).

Event-name constants (the ``EV_*`` strings) are the vocabulary shared by
the whole simulator: the clock ledgers them, and
:mod:`repro.core.formulas` reconstructs the paper's estimation formulas
from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.core import calibration
from repro.core.calibration import SizeCurve

__all__ = [
    "CostParams",
    "CostModel",
    # event vocabulary
    "EV_CONTEXT_SWITCH",
    "EV_PF_KERNEL",
    "EV_PF_USER",
    "EV_PF_MINOR",
    "EV_VMREAD",
    "EV_VMWRITE",
    "EV_VMEXIT",
    "EV_HYPERCALL",
    "EV_PML_FULL_VMEXIT",
    "EV_PML_LOG",
    "EV_SELF_IPI",
    "EV_CLEAR_REFS",
    "EV_PT_WALK_USER",
    "EV_REVERSE_MAP",
    "EV_RB_COPY",
    "EV_ENABLE_LOGGING",
    "EV_DISABLE_LOGGING",
    "EV_IOCTL_INIT_PML",
    "EV_IOCTL_DEACT_PML",
    "EV_HC_INIT_PML",
    "EV_HC_INIT_PML_SHADOW",
    "EV_HC_DEACT_PML",
    "EV_HC_DEACT_PML_SHADOW",
    "EV_UFD_REGISTER",
    "EV_UFD_WRITE_PROTECT",
    "EV_UFD_WAKE",
    "EV_TLB_FLUSH",
    "EV_SCHED_SWITCH",
    "EV_COMPUTE",
    "EV_TRACKING_ROUTINE",
    "EV_DISK_WRITE",
    "EV_MIGRATION_SEND",
    "EV_NET_PAGE_PULL",
    "EV_NET_BACKOFF",
    "EV_POSTCOPY_SWITCH",
    "EV_BALLOON_PAGE",
    "EV_RECLAIM_COPY",
    "EV_REFAULT_COPY",
]

# ---------------------------------------------------------------------------
# Event vocabulary
# ---------------------------------------------------------------------------
EV_CONTEXT_SWITCH = "context_switch"  # M1
EV_PF_KERNEL = "pf_kernel"  # M5: soft-dirty write-protect fault
EV_PF_USER = "pf_user"  # M6: ufd fault resolved in userspace
EV_PF_MINOR = "pf_minor"  # first-touch demand paging
EV_VMREAD = "vmread"  # M7
EV_VMWRITE = "vmwrite"  # M8
EV_VMEXIT = "vmexit"  # generic guest->hypervisor trap
EV_HYPERCALL = "hypercall"  # generic hypercall entry/exit
EV_PML_FULL_VMEXIT = "pml_full_vmexit"  # PML buffer full trap
EV_PML_LOG = "pml_log"  # one address logged by the PML circuit
EV_SELF_IPI = "self_ipi"  # EPML posted-interrupt delivery
EV_CLEAR_REFS = "clear_refs"  # M15
EV_PT_WALK_USER = "pt_walk_user"  # M16: pagemap parse
EV_REVERSE_MAP = "reverse_map"  # M17: GPA->GVA
EV_RB_COPY = "rb_copy"  # M18: PML buffer -> ring buffer
EV_ENABLE_LOGGING = "enable_logging"  # M13 (SPML schedule-in hypercall)
EV_DISABLE_LOGGING = "disable_logging"  # M14 (SPML schedule-out hypercall)
EV_IOCTL_INIT_PML = "ioctl_init_pml"  # M3
EV_IOCTL_DEACT_PML = "ioctl_deact_pml"  # M4
EV_HC_INIT_PML = "hc_init_pml"  # M9
EV_HC_INIT_PML_SHADOW = "hc_init_pml_shadow"  # M10
EV_HC_DEACT_PML = "hc_deact_pml"  # M11
EV_HC_DEACT_PML_SHADOW = "hc_deact_pml_shadow"  # M12
EV_UFD_REGISTER = "ufd_register"
EV_UFD_WRITE_PROTECT = "ufd_write_protect"  # M2
EV_UFD_WAKE = "ufd_wake"
EV_TLB_FLUSH = "tlb_flush"  # count-only: its cost is inside the M15 curve
EV_SCHED_SWITCH = "sched_switch"
EV_COMPUTE = "compute"  # workload's own work
EV_TRACKING_ROUTINE = "tracking_routine"  # the paper's C_p
EV_DISK_WRITE = "disk_write"  # CRIU image writes
EV_MIGRATION_SEND = "migration_page_send"  # pre-copy page transfer
EV_NET_PAGE_PULL = "net_page_pull"  # post-copy demand fetch over the link
EV_NET_BACKOFF = "net_backoff"  # partition retry wait
EV_POSTCOPY_SWITCH = "postcopy_switchover"  # pre->post-copy state handoff
EV_SNAPSHOT_MAP = "snapshot_map"  # serverless CoW restore mapping
EV_SNAPSHOT_COPY = "snapshot_copy"  # serverless diff read / merge write
EV_BALLOON_PAGE = "balloon_page"  # hypervisor EPT map/unmap per ballooned page
EV_RECLAIM_COPY = "reclaim_copy"  # reclaimed page content saved to swap store
EV_REFAULT_COPY = "refault_copy"  # swap-store content reinstalled on refault


@dataclass(frozen=True, init=False)
class CostParams:
    """All scalar unit costs, microseconds.

    Table Va values come from :data:`repro.core.calibration.TABLE_VA_US`;
    the remaining fields are microarchitectural conventions documented in
    DESIGN.md §5.  ``CostParams()`` takes no arguments: every instance
    reads these values.
    """

    context_switch_us: float = calibration.TABLE_VA_US["m1_context_switch"]
    ioctl_init_pml_us: float = calibration.TABLE_VA_US["m3_ioctl_init_pml"]
    ioctl_deact_pml_us: float = calibration.TABLE_VA_US["m4_ioctl_deact_pml"]
    vmread_us: float = calibration.TABLE_VA_US["m7_vmread"]
    vmwrite_us: float = calibration.TABLE_VA_US["m8_vmwrite"]
    hc_init_pml_us: float = calibration.TABLE_VA_US["m9_hc_init_pml"]
    hc_init_pml_shadow_us: float = calibration.TABLE_VA_US["m10_hc_init_pml_shadow"]
    hc_deact_pml_us: float = calibration.TABLE_VA_US["m11_hc_deact_pml"]
    hc_deact_pml_shadow_us: float = calibration.TABLE_VA_US["m12_hc_deact_pml_shadow"]
    enable_logging_us: float = calibration.TABLE_VA_US["m13_enable_logging"]

    # Not itemised by the paper; conventional values.
    vmexit_roundtrip_us: float = 2.0  # raw trap + resume
    hypercall_entry_us: float = 1.2  # hypercall dispatch on top of the trap
    self_ipi_us: float = 0.5  # posted-interrupt delivery, no vmexit
    pf_minor_us: float = 1.0  # demand-paging fault (all techniques alike)
    ufd_register_us: float = 4.0  # UFFDIO_REGISTER on a range
    ufd_wake_us: float = 0.6  # UFFDIO_WAKE / write-unprotect wakeup
    disk_write_us_per_page: float = 1.5  # CRIU image write bandwidth proxy
    pte_dirty_clear_us: float = 0.01  # per-page PTE dirty-bit clear (EPML re-arm)
    disable_logging_call_us: float = 4.0  # SPML schedule-out flush bookkeeping
    # OoH-SPP (paper §III-D extension): init assumed comparable to PML
    # init; per-page protect is a table write behind one hypercall.
    hc_spp_init_us: float = 5495.0
    spp_protect_us: float = 0.9  # table-entry write inside the hypercall
    # Simulated network (fleet layer).  ``net_send_us_per_page`` keeps the
    # historical LiveMigration per-page constant; links may override it.
    net_send_us_per_page: float = 3.3  # ~10 GbE for a 4 KiB page + headers
    net_latency_us: float = 50.0  # per-transfer propagation + stack traversal
    net_spike_factor: float = 10.0  # latency multiplier under a spike fault
    net_backoff_us: float = 200.0  # wait per partition-retry attempt
    postcopy_state_us: float = 300.0  # pre->post-copy switchover bookkeeping
    # Serverless snapshot layer.  Mapping is a CoW remap (page-table play,
    # no copy); diff extraction and merge move page contents, so they pay
    # a memcpy-rate per-page cost.
    snapshot_map_us_per_page: float = 0.12  # CoW mapping bookkeeping
    snapshot_copy_us_per_page: float = 0.45  # diff read / merge write memcpy
    # Memory economics (fleet overcommit).  Balloon inflate/deflate is an
    # EPT map/unmap plus free-list play per page inside one hypercall;
    # reclaim/refault move page contents at memcpy rate (same order as the
    # snapshot copy path, which models the identical operation).
    balloon_page_us: float = 0.25  # per-page EPT map/unmap in the hypercall
    reclaim_copy_us_per_page: float = 0.45  # victim content -> swap store
    refault_copy_us_per_page: float = 0.45  # swap store -> fresh frame
    # In-guest heap consumers (Boehm GC, UAF mitigation): pointer-scanning
    # a 4 KiB page and an object header, sweeping and allocating an object.
    heap_scan_us_per_page: float = 2.0
    heap_scan_us_per_obj: float = 0.02
    gc_sweep_us_per_obj: float = 0.01
    gc_alloc_us_per_obj: float = 0.05


class CostModel:
    """Scalar params plus the Table Vb size-dependent curves: tables built
    once per process and shared, read-only, by every instance."""

    __slots__ = ()
    params = CostParams()
    curves: Mapping[str, SizeCurve] = MappingProxyType(calibration.size_curves())

    # -- size-dependent helpers -------------------------------------------
    def pf_kernel_unit_us(self, mem_pages: int) -> float:
        """Per-fault cost of a soft-dirty write-protect fault (M5)."""
        return self.curves["m5_pf_kernel"].unit(mem_pages)

    def pf_user_unit_us(self, mem_pages: int) -> float:
        """Per-fault cost of a ufd fault incl. userspace handling (M6)."""
        return self.curves["m6_pf_user"].unit(mem_pages)

    def clear_refs_us(self, mem_pages: int) -> float:
        """One ``echo 4 > clear_refs`` over an address space (M15)."""
        return float(self.curves["m15_clear_refs"].total(mem_pages))

    def pt_walk_user_us(self, mem_pages: int) -> float:
        """One userspace pagemap parse over an address space (M16)."""
        return float(self.curves["m16_pt_walk_user"].total(mem_pages))

    def reverse_map_us(self, n_addresses: int, mem_pages: int) -> float:
        """Reverse-map ``n_addresses`` GPAs in a ``mem_pages`` space (M17).

        The published curve measures reverse mapping every page of an
        n-page space; per-address cost is that total divided by n, which
        preserves the super-linear growth (each lookup scans the pagemap).
        """
        if n_addresses <= 0:
            return 0.0
        return self.curves["m17_reverse_map"].unit(mem_pages) * n_addresses

    def rb_copy_us(self, n_entries: int, mem_pages: int) -> float:
        """Copy ``n_entries`` logged addresses into a ring buffer (M18)."""
        if n_entries <= 0:
            return 0.0
        return self.curves["m18_rb_copy"].unit(mem_pages) * n_entries

    def disable_logging_us(self, mem_pages: int, n_calls: int) -> float:
        """Per-call cost of the SPML ``disable_logging`` hypercall (M14).

        Table Vb reports the summed cost over a run; we spread it over the
        run's schedule-out count.
        """
        if n_calls <= 0:
            return 0.0
        return float(self.curves["m14_disable_logging"].total(mem_pages)) / n_calls

    def ufd_write_protect_us(self, mem_pages: int) -> float:
        """UFFDIO_WRITEPROTECT over an address space (M2).

        The paper marks M2 size-dependent but does not tabulate it; like
        ``clear_refs`` it is a kernel PTE walk plus TLB flush, so we reuse
        the M15 curve (documented substitution, DESIGN.md §5).
        """
        return float(self.curves["m15_clear_refs"].total(mem_pages))
