"""userfaultfd emulation (the paper's *ufd* baseline).

Semantics follow Linux's userfaultfd(2) as the paper uses it (§III-A):

* a tracker creates a :class:`UserFaultFd` and registers a VMA range in
  ``missing`` and/or ``write_protect`` mode;
* ``write_protect`` arms UFD write protection on the range's PTEs
  (UFFDIO_WRITEPROTECT) — a subsequent write faults, *suspends the
  faulting thread*, and delivers the fault to the tracker, which resolves
  it by write-unprotecting the page (and waking the thread);
* ``missing`` mode delivers first-touch faults the same way (UFFDIO_COPY
  resolves them).

Cost accounting reproduces the paper's split of M6 (page-fault handling in
userspace): a kernel share equal to the kernel-space fault path (M5 curve)
charged to the kernel world, and the dominant remainder charged to the
tracker world — §III-A measures ~33.6 ms kernel vs ~3,383 ms tracker for
1 GB.  Two extra user/kernel transitions (M1) model the world switches.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.clock import SimClock, World
from repro.core.costs import (
    EV_CONTEXT_SWITCH,
    EV_PF_USER,
    EV_UFD_REGISTER,
    EV_UFD_WAKE,
    EV_UFD_WRITE_PROTECT,
    CostModel,
)
from repro.errors import TrackingError
from repro.guest.process import Process, Vma
from repro.hw.pagetable import PTE_UFD_WP, PTE_WRITABLE, PTE_ZERO
from repro.hw.pageset import unique_pages

__all__ = ["UfdMode", "UserFaultFd"]


class UfdMode(enum.Flag):
    MISSING = enum.auto()
    WRITE_PROTECT = enum.auto()


class UserFaultFd:
    """One userfaultfd object bound to a process."""

    def __init__(
        self,
        clock: SimClock,
        costs: CostModel,
        process: Process,
        kernel,
    ) -> None:
        if process.uffd is not None:
            raise TrackingError(f"process {process.pid} already has a userfaultfd")
        self.clock = clock
        self.costs = costs
        self.process = process
        #: Owning guest kernel; arming write protection uses its
        #: SMP-correct TLB-shootdown path (every vCPU may cache a stale
        #: writable translation).
        self.kernel = kernel
        self.mode = UfdMode(0)
        self._registered = np.zeros(process.space.n_pages, dtype=bool)
        self._dirty: list[np.ndarray] = []
        #: Userspace miss handlers run after each resolved MISSING batch,
        #: in registration order — the seam demand-paging consumers
        #: (post-copy pull, balloon refault) hang their content install
        #: on.  They run before the MMU completes the triggering access,
        #: so a write access still lands on top of the installed content
        #: (UFFDIO_COPY ordering).
        self.miss_resolvers: list = []
        self.n_faults = 0
        process.uffd = self

    # ------------------------------------------------------------------
    # ioctl-style API used by the tracker
    # ------------------------------------------------------------------
    def register(self, vma: Vma, mode: UfdMode) -> None:
        """UFFDIO_REGISTER on a VMA range."""
        self.mode |= mode
        self._registered[vma.start_vpn:vma.end_vpn] = True
        self.clock.charge(
            self.costs.params.ufd_register_us, World.TRACKER, EV_UFD_REGISTER
        )

    def write_protect(self, vpns: np.ndarray | None = None) -> None:
        """UFFDIO_WRITEPROTECT: arm WP on registered pages (M2)."""
        if not self.mode & UfdMode.WRITE_PROTECT:
            raise TrackingError("write_protect requires WRITE_PROTECT mode")
        pt = self.process.space.pt
        if vpns is None:
            vpns = np.nonzero(self._registered)[0].astype(np.int64)
        else:
            vpns = np.asarray(vpns, dtype=np.int64)
            if not self._registered[vpns].all():
                raise TrackingError("write_protect outside registered range")
        present = pt.present_mask(vpns)
        armed = vpns[present]
        pt.set_flags(armed, PTE_UFD_WP)
        pt.clear_flags(armed, PTE_WRITABLE)
        self.kernel.tlb_shootdown(self.process, armed)
        self.clock.charge(
            self.costs.ufd_write_protect_us(max(int(vpns.size), 1)),
            World.TRACKER,
            EV_UFD_WRITE_PROTECT,
        )

    def read_dirty(self) -> np.ndarray:
        """Drain VPNs whose write faults the tracker has resolved."""
        if not self._dirty:
            return np.empty(0, dtype=np.int64)
        out = unique_pages(
            np.concatenate(self._dirty), self.process.space.n_pages
        )
        self._dirty.clear()
        return out

    def close(self) -> None:
        pt = self.process.space.pt
        armed = pt.vpns_with_flag(PTE_UFD_WP)
        pt.clear_flags(armed, PTE_UFD_WP)
        pt.set_flags(armed, PTE_WRITABLE)
        self.process.uffd = None

    # ------------------------------------------------------------------
    # fault delivery (called by the guest kernel's fault path)
    # ------------------------------------------------------------------
    def miss_registered_mask(self, vpns: np.ndarray) -> np.ndarray:
        if not self.mode & UfdMode.MISSING:
            return np.zeros(len(vpns), dtype=bool)
        return self._registered[np.asarray(vpns, dtype=np.int64)]

    def deliver_write_faults(self, vpns: np.ndarray) -> None:
        """Faulting thread suspended; tracker resolves and wakes it."""
        self._handle_faults(vpns)
        pt = self.process.space.pt
        pt.clear_flags(vpns, PTE_UFD_WP | PTE_ZERO)
        pt.set_flags(vpns, PTE_WRITABLE)
        self._dirty.append(np.asarray(vpns, dtype=np.int64).copy())

    def deliver_miss_faults(
        self, vpns: np.ndarray, write_mask: np.ndarray | None = None
    ) -> None:
        """Tracker resolves missing pages: UFFDIO_COPY for write faults
        (page counts dirty), UFFDIO_ZEROPAGE for read faults (clean; if
        the region is also write-protect-registered, the zero page stays
        armed so the eventual first write is still caught)."""
        vpns = np.asarray(vpns, dtype=np.int64)
        if write_mask is None:
            write_mask = np.ones(vpns.shape, dtype=bool)
        write_mask = np.asarray(write_mask, dtype=bool)
        self._handle_faults(vpns)
        written = vpns[write_mask]
        if written.size:
            self._dirty.append(written.copy())
        zeroed = vpns[~write_mask]
        if zeroed.size and (self.mode & UfdMode.WRITE_PROTECT):
            pt = self.process.space.pt
            pt.set_flags(zeroed, PTE_UFD_WP)
            pt.clear_flags(zeroed, PTE_WRITABLE | PTE_ZERO)
        for resolver in list(self.miss_resolvers):
            resolver(vpns, write_mask)

    def add_miss_resolver(self, resolver) -> None:
        """Register a userspace miss handler: ``resolver(vpns, write_mask)``
        runs after each MISSING batch is mapped (see ``miss_resolvers``)."""
        self.miss_resolvers.append(resolver)

    def remove_miss_resolver(self, resolver) -> None:
        if resolver in self.miss_resolvers:
            self.miss_resolvers.remove(resolver)

    def _handle_faults(self, vpns: np.ndarray) -> None:
        n = int(len(vpns))
        if n == 0:
            return
        self.n_faults += n
        mem_pages = self.process.space.n_pages
        total_unit = self.costs.pf_user_unit_us(mem_pages)
        kernel_unit = min(self.costs.pf_kernel_unit_us(mem_pages), total_unit)
        # Kernel share of the fault path.
        self.clock.charge(kernel_unit * n, World.KERNEL, EV_PF_USER, n)
        # Userspace (tracker) share: the dominant term of M6.
        self.clock.charge(
            (total_unit - kernel_unit) * n, World.TRACKER, EV_PF_USER, 0
        )
        # kernel -> tracker -> kernel world transitions per fault.
        self.clock.charge(
            2 * n * self.costs.params.context_switch_us,
            World.KERNEL,
            EV_CONTEXT_SWITCH,
            2 * n,
        )
        # Wake of the suspended faulting thread.
        self.clock.charge(
            n * self.costs.params.ufd_wake_us, World.TRACKER, EV_UFD_WAKE, n
        )
