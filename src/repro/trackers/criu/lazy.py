"""Lazy restore: CRIU's ``lazy-pages`` mode on userfaultfd MISSING.

The flip side of dirty tracking: instead of copying every image page up
front, the restored process starts immediately with an *empty* address
space registered with a userfaultfd in ``missing`` mode; a lazy-pages
daemon (a userfaultfd miss resolver) resolves each first touch by
fetching that one page from the checkpoint image.  Pages the process
never touches are never copied — restore latency becomes O(working set),
not O(image).

This exercises the ufd miss path end-to-end and gives the examples a
second realistic userfaultfd consumer beyond write-protect tracking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.clock import World
from repro.core.costs import EV_DISK_WRITE
from repro.guest.kernel import GuestKernel
from repro.guest.process import Process
from repro.guest.uffd import UfdMode, UserFaultFd
from repro.trackers.criu.images import CheckpointImage
from repro.trackers.criu.restore import spawn_from_image

__all__ = ["LazyRestoreStats", "LazyRestoredProcess", "lazy_restore"]


@dataclass
class LazyRestoreStats:
    image_pages: int = 0
    pages_fetched: int = 0

    @property
    def fetch_fraction(self) -> float:
        return self.pages_fetched / self.image_pages if self.image_pages else 0.0


@dataclass
class LazyRestoredProcess:
    process: Process
    uffd: UserFaultFd
    stats: LazyRestoreStats = field(default_factory=LazyRestoreStats)

    def finish(self) -> None:
        """Detach the lazy-pages daemon (remaining pages stay demand-zero)."""
        self.uffd.close()


def lazy_restore(
    kernel: GuestKernel,
    image: CheckpointImage,
    fetch_us_per_page: float | None = None,
) -> LazyRestoredProcess:
    """Restore ``image`` lazily; returns the runnable process.

    The process's pages materialise on first touch; consult ``stats`` for
    how much of the image was actually fetched.
    """
    if fetch_us_per_page is None:
        fetch_us_per_page = kernel.costs.params.disk_write_us_per_page
    proc = spawn_from_image(kernel, image, "lazy")
    flat = image.flatten()
    # The page server's view of the image, indexed by VPN.
    in_image = np.zeros(image.space_pages, dtype=bool)
    in_image[flat.vpns] = True
    tokens = np.zeros(image.space_pages, dtype=np.uint64)
    tokens[flat.vpns] = flat.tokens

    stats = LazyRestoreStats(image_pages=flat.n_pages)
    uffd = kernel.create_uffd(proc)
    for vma in proc.space.vmas:
        uffd.register(vma, UfdMode.MISSING)
    # The lazy-pages daemon holds only the data it uses (never the kernel
    # or the process), so it adds no reference cycle.
    mmu, clock, pt = kernel.vm.mmu, kernel.clock, proc.space.pt

    def fetch(vpns: np.ndarray, write_mask: np.ndarray) -> None:
        """Overlay image contents on the pages of a resolved miss batch."""
        have = vpns[in_image[vpns]]
        if have.size == 0:
            return
        mmu.write_page_contents(pt, have, tokens[have])
        n = int(have.size)
        stats.pages_fetched += n
        clock.charge(n * fetch_us_per_page, World.TRACKER, EV_DISK_WRITE, n)

    uffd.add_miss_resolver(fetch)
    return LazyRestoredProcess(process=proc, uffd=uffd, stats=stats)
