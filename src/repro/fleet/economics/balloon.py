"""Guest balloon driver: hypercall-driven frame reclaim + uffd refault.

The reclaim datapath, virtio-balloon shaped but driven by the *host's*
WSS signal (accessed-bit sampling needs no guest cooperation; the balloon
driver is the one guest-side seam, exactly like the OoH module):

* **inflate** — the driver picks cold victim pages (EPT accessed bit
  still clear since the last WSS sample), saves their content tokens to
  a VPN-indexed swap store, unmaps the PTEs (with a TLB shootdown —
  every vCPU may cache the dying translations) and hands the guest
  frames to the hypervisor via ``HC_OOH_BALLOON_INFLATE``, which
  EPT-unmaps them and returns the host frames to the pool.  Ballooned
  guest frames are held by the driver — *not* returned to the guest
  allocator — so the guest can never re-allocate an EPT-unbacked frame.
* **refault** — the workload touches a reclaimed page: a uffd MISSING
  fault fires (the driver registered the workload VMAs at attach), the
  kernel maps a fresh guest frame, and the driver's miss resolver
  re-backs held frames via ``HC_OOH_BALLOON_DEFLATE`` (restoring the
  guest-frame float) and reinstalls the saved tokens before the MMU
  completes the triggering access — UFFDIO_COPY ordering, so no dirty
  page is ever lost across a reclaim/refault cycle.

Both hypercalls go through the shared :class:`~repro.retry.Retrier`: an
injected ``HYPERCALL_TRANSIENT`` EAGAIN or ``FRAME_EXHAUSTION`` inside
the deflate allocation retries with charged backoff, like every other
recovery path in the simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.clock import World
from repro.core.costs import EV_RECLAIM_COPY, EV_REFAULT_COPY
from repro.errors import ConfigurationError, OutOfFramesError, TrackingError
from repro.guest.uffd import UfdMode, UserFaultFd
from repro.hw.pageset import unique_pages
from repro.hw.pagetable import PTE_PRESENT
from repro.hypervisor.hypercalls import (
    HC_OOH_BALLOON_DEFLATE,
    HC_OOH_BALLOON_INFLATE,
)
from repro.obs import trace as otr
from repro.obs.events import EventKind
from repro.retry import Retrier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.economics.reclaim import HostEconomics
    from repro.fleet.host import FleetVm

__all__ = ["BalloonDriver"]


class BalloonDriver:
    """One guest's balloon: swap store, held frames, refault resolver."""

    def __init__(self, fvm: "FleetVm", economics: "HostEconomics") -> None:
        if fvm.kernel is None or fvm.proc is None or fvm.vm is None:
            raise ConfigurationError(
                f"FleetVm {fvm.name} must be bound before ballooning"
            )
        if fvm.proc.uffd is not None:
            raise TrackingError(
                f"process of {fvm.name} already has a userfaultfd; the "
                "balloon's refault path cannot share it"
            )
        self.fvm = fvm
        self.economics = economics
        self.kernel = fvm.kernel
        self.proc = fvm.proc
        self.vm = fvm.vm
        n = self.proc.space.pt.n_pages
        #: The swap store, indexed by VPN: which pages are reclaimed and
        #: the content token each had when it was.
        self._swapped = np.zeros(n, dtype=bool)
        self._swap_tok = np.zeros(n, dtype=np.uint64)
        #: Guest frames held while their host backing is returned (LIFO).
        self._held_gpfns: list[int] = []
        self._retrier = Retrier(self.vm.clock, World.KERNEL)
        self.reclaimed_pages = 0
        self.refault_pages = 0
        self.refault_faults = 0
        #: Refaults currently being resolved (reentrancy guard: reclaim
        #: triggered from inside a refault must not unmap batch pages).
        self._inflight = np.zeros(n, dtype=bool)
        # Refaults trap to userspace, lazy-pages style.
        self.uffd: UserFaultFd = self.kernel.create_uffd(self.proc)
        for vma in self.proc.space.vmas:
            self.uffd.register(vma, UfdMode.MISSING)
        self.uffd.add_miss_resolver(self._on_miss)

    # -- introspection -------------------------------------------------
    @property
    def ballooned_pages(self) -> int:
        return len(self._held_gpfns)

    @property
    def swapped_pages(self) -> int:
        """Reclaimed pages whose tokens wait in the swap store."""
        return int(np.count_nonzero(self._swapped))

    @property
    def resident_pages(self) -> int:
        """Present workload pages (what reclaim can still take from)."""
        flags = self.proc.space.pt.flags
        return sum(
            int(np.count_nonzero(flags[vma.start_vpn:vma.end_vpn] & PTE_PRESENT))
            for vma in self.proc.space.vmas
        )

    # -- inflate (reclaim) ---------------------------------------------
    def _victims(self, n: int) -> np.ndarray:
        """Up to ``n`` present workload VPNs, coldest first (EPT accessed
        bit clear since the last WSS sample), ascending VPN within each
        class.  Pages of an access batch currently inside the MMU are
        never victims: the fused access will still complete on them, and
        unmapping one mid-fault would leave the resolved batch unmapped."""
        pt = self.proc.space.pt
        pools = [
            vma.start_vpn
            + np.flatnonzero(pt.flags[vma.start_vpn:vma.end_vpn] & PTE_PRESENT)
            for vma in self.proc.space.vmas
        ]
        if not pools:
            return np.empty(0, dtype=np.int64)
        cand = unique_pages(np.concatenate(pools), pt.n_pages)
        active = self.kernel.active_access_vpns(self.proc)
        if active.size:
            cand = cand[~np.isin(cand, active)]
        cand = cand[~self._inflight[cand]]
        if cand.size == 0:
            return cand
        gpfns = pt.translate(cand)
        hot = self.vm.ept.accessed_mask(gpfns)
        ordered = np.concatenate([cand[~hot], cand[hot]])
        return ordered[:n]

    def inflate(self, n_pages: int) -> int:
        """Reclaim up to ``n_pages`` cold frames; returns how many host
        frames were actually freed."""
        if n_pages <= 0:
            return 0
        victims = self._victims(n_pages)
        if victims.size == 0:
            return 0
        pt = self.proc.space.pt
        self._swap_tok[victims] = self.vm.mmu.read_page_contents(pt, victims)
        self._swapped[victims] = True
        # Dying translations may be cached on any vCPU.
        self.kernel.tlb_shootdown(self.proc, victims)
        gpfns = pt.unmap(victims)
        self.vm.clock.charge(
            victims.size * self.vm.costs.params.reclaim_copy_us_per_page,
            World.KERNEL,
            EV_RECLAIM_COPY,
            int(victims.size),
        )
        self._retrier.call(
            lambda: self.vm.vcpu.hypercall(HC_OOH_BALLOON_INFLATE, gpfns)
        )
        self._held_gpfns.extend(gpfns.tolist())
        self.reclaimed_pages += int(victims.size)
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.BALLOON_INFLATE,
                vm=self.fvm.name,
                n_pages=int(victims.size),
                ballooned=len(self._held_gpfns),
            )
        return int(victims.size)

    # -- refault (deflate) ---------------------------------------------
    def _deflate(self, k: int) -> None:
        """Re-back the ``k`` most recently held guest frames and return
        them to the guest allocator.  Host frames must exist for the
        deflate — under pressure the controller reclaims them from other
        guests."""
        self.economics.ensure_free(k, requester=self)
        batch = np.array(self._held_gpfns[-k:], dtype=np.int64)
        del self._held_gpfns[-k:]
        self._retrier.call(
            lambda: self.vm.vcpu.hypercall(HC_OOH_BALLOON_DEFLATE, batch)
        )
        self.vm.guest_frames.free(batch)
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.BALLOON_DEFLATE,
                vm=self.fvm.name,
                n_pages=k,
                ballooned=len(self._held_gpfns),
            )

    def _reinstall(self, vpns: np.ndarray) -> None:
        """Write the saved tokens of reclaimed (now mapped again) pages
        back and charge the copy."""
        self._swapped[vpns] = False
        self.vm.mmu.write_page_contents(
            self.proc.space.pt, vpns, self._swap_tok[vpns]
        )
        self.vm.clock.charge(
            vpns.size * self.vm.costs.params.refault_copy_us_per_page,
            World.KERNEL,
            EV_REFAULT_COPY,
            int(vpns.size),
        )
        self.refault_pages += int(vpns.size)
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.BALLOON_REFAULT,
                vm=self.fvm.name,
                n_pages=int(vpns.size),
            )

    def _on_miss(self, vpns: np.ndarray, write_mask: np.ndarray) -> None:
        vpns = np.asarray(vpns, dtype=np.int64)
        if vpns.size == 0:
            return
        self._inflight[vpns] = True
        try:
            # Every miss consumed one fresh guest frame; release the same
            # number of held frames so the guest allocator float is
            # restored.
            k = min(int(vpns.size), len(self._held_gpfns))
            if k > 0:
                self._deflate(k)
            # Reinstall saved contents for the reclaimed pages in the
            # batch, before the MMU completes the triggering access.
            arr = vpns[self._swapped[vpns]]
            if arr.size:
                self._reinstall(arr)
                self.refault_faults += 1
        finally:
            self._inflight[vpns] = False

    def deflate_all(self) -> int:
        """Drain the balloon: re-back every held frame and reinstall
        every swapped token, making the guest image whole again.  The
        orchestrator calls this before a migration reads the source —
        ``_source_contents`` only sees present pages, so a swapped token
        left behind would be silently lost in transit."""
        vpns = np.flatnonzero(self._swapped)
        if self._held_gpfns:
            self._deflate(len(self._held_gpfns))
        if self._held_gpfns:
            # Only this guest had frames to give, so the deflate's reclaim
            # re-ballooned it: the image cannot be made whole here.
            raise OutOfFramesError(
                f"{self.fvm.name}: host {self.economics.host.host_id} "
                f"re-ballooned {len(self._held_gpfns)} pages of the guest "
                "it is draining"
            )
        if vpns.size == 0:
            return 0
        gpfns = self._retrier.call(
            lambda: self.vm.guest_frames.alloc(int(vpns.size))
        )
        self.proc.space.pt.map(vpns, gpfns, writable=True, soft_dirty=True)
        self._reinstall(vpns)
        return int(vpns.size)

    def close(self) -> None:
        """Detach the refault path.  A live balloon is allowed here only
        when the VM is being destroyed (eviction); migration must call
        :meth:`deflate_all` first."""
        self.uffd.remove_miss_resolver(self._on_miss)
        self.uffd.close()
