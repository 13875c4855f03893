"""Post-copy destination: pull-on-fault over userfaultfd + background push.

When pre-copy cannot converge under the downtime SLO, the orchestrator
pauses the source, ships only the VM's *non-dirty* state, and resumes the
guest on the destination immediately.  Pages still dirty at switchover
("on the wire") materialise two ways, exactly the CRIU lazy-pages shape
(:mod:`repro.trackers.criu.lazy`):

* **pull** — the destination guest touches a missing page; the uffd
  MISSING fault is resolved by fetching that batch over the network
  (charged to the guest's world: post-copy faults are downtime the
  application feels);
* **push** — a background daemon streams the remaining pages in batches
  so the tail does not fault forever.

Content tokens are installed during fault resolution, *before* the MMU
completes the triggering access — a destination write lands on top of the
transferred content (UFFDIO_COPY ordering), so source tokens never
clobber destination progress.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clock import World
from repro.core.costs import EV_MIGRATION_SEND, EV_NET_PAGE_PULL
from repro.guest.kernel import GuestKernel
from repro.guest.process import Process
from repro.guest.uffd import UfdMode, UserFaultFd
from repro.hw.pageset import page_bitmap
from repro.hw.pagetable import PTE_DIRTY
from repro.net.transport import Flow, Transport
from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = ["PostCopyReport", "PostCopyDestination"]


@dataclass
class PostCopyReport:
    """Accounting for one post-copy phase."""

    missing_pages: int = 0
    pulled_pages: int = 0
    pushed_pages: int = 0
    pull_faults: int = 0


class PostCopyDestination:
    """The destination protocol half after a post-copy switchover."""

    def __init__(
        self,
        kernel: GuestKernel,
        proc: Process,
        transport: Transport,
        flow: Flow,
        missing_vpns: np.ndarray,
        final_vpns: np.ndarray,
        final_tokens: np.ndarray,
        push_batch_pages: int = 256,
    ) -> None:
        self.kernel = kernel
        self.proc = proc
        self.transport = transport
        self.flow = flow
        self.push_batch_pages = push_batch_pages
        # Page state over the address space: the paused source image as a
        # VPN-indexed token array plus a "has token" bitmap, and the pages
        # still on the wire as a bitmap.
        n = proc.space.pt.n_pages
        self._has_token = page_bitmap(final_vpns, n)
        self._tokens = np.zeros(n, dtype=np.uint64)
        self._tokens[final_vpns] = final_tokens
        self.on_wire = page_bitmap(missing_vpns, n)
        self.report = PostCopyReport(
            missing_pages=int(np.count_nonzero(self.on_wire))
        )

        # Pages pre-copy already transferred are resident before the guest
        # resumes: materialise them and overlay the source's tokens (their
        # transfer time was charged round by round during pre-copy).
        resident = final_vpns[~self.on_wire[final_vpns]]
        if resident.size:
            kernel.access(proc, resident, True)
            kernel.vm.mmu.write_page_contents(
                proc.space.pt, resident, self._tokens[resident]
            )
            # The materialisation pass is not guest progress: clear the PTE
            # dirty bits so the first *real* destination write to each page
            # surfaces in ``newly_pte_dirty`` (the integrity exclusion set).
            proc.space.pt.clear_flags(resident, PTE_DIRTY)

        # Missing pages trap to userspace on first touch, lazy-pages style.
        self.uffd: UserFaultFd = kernel.create_uffd(proc)
        for vma in proc.space.vmas:
            self.uffd.register(vma, UfdMode.MISSING)
        self.uffd.add_miss_resolver(self._on_miss)

    def _on_miss(self, vpns: np.ndarray, write_mask: np.ndarray) -> None:
        self._resolve(np.asarray(vpns, dtype=np.int64))

    def _resolve(self, vpns: np.ndarray) -> None:
        """Install transferred contents for freshly-resolved pages; pages
        still on the wire are pulled over the network first."""
        pulls = vpns[self.on_wire[vpns]]
        n_pull = int(pulls.size)
        if n_pull:
            self.on_wire[pulls] = False
            self.report.pull_faults += 1
            self.report.pulled_pages += n_pull
            self.transport.send(
                self.flow, n_pull, world=World.TRACKED,
                event=EV_NET_PAGE_PULL,
            )
            if otr.ACTIVE is not None:
                otr.ACTIVE.emit(
                    EventKind.POSTCOPY_PULL,
                    flow=self.flow.flow_id,
                    n_pages=n_pull,
                )
        have = vpns[self._has_token[vpns]]
        if have.size:
            self.kernel.vm.mmu.write_page_contents(
                self.proc.space.pt, have, self._tokens[have]
            )

    def push_step(self) -> int:
        """Background-push one batch of still-missing pages (ascending
        VPN); returns how many pages moved."""
        batch = np.flatnonzero(self.on_wire)[: self.push_batch_pages]
        if batch.size == 0:
            return 0
        # Leave the wire *before* the access: the push pays the transfer,
        # and the miss-fault hook must not double-charge it as a pull.
        self.on_wire[batch] = False
        self.transport.send(
            self.flow, int(batch.size), world=World.HYPERVISOR,
            event=EV_MIGRATION_SEND,
        )
        self.kernel.access(self.proc, batch, False)
        self.report.pushed_pages += int(batch.size)
        if otr.ACTIVE is not None:
            otr.ACTIVE.metrics.inc("postcopy.pushed_pages", int(batch.size))
        return int(batch.size)

    def drain(self) -> None:
        """Push everything left, then detach the uffd."""
        while self.push_step():
            pass
        self.uffd.close()
