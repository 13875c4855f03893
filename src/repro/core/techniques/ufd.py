"""The userfaultfd technique.

Initialization: register the process's VMAs with a userfaultfd in
``write_protect`` mode and arm protection (M2).  Monitoring: every write
suspends the tracked thread, traps to the tracker in userspace (M6), which
write-unprotects and wakes it — the dirty set accrues *during* monitoring
(paper Fig. 1.b).  Collection: drain the accrued set and re-protect the
collected pages for the next interval.
"""

from __future__ import annotations

import numpy as np

from repro.core.tracking import DirtyPageTracker, Technique, register_technique
from repro.guest.uffd import UfdMode, UserFaultFd

__all__ = ["UfdTracker"]


@register_technique
class UfdTracker(DirtyPageTracker):
    technique = Technique.UFD

    def __init__(self, kernel, process) -> None:
        super().__init__(kernel, process)
        self._uffd: UserFaultFd | None = None

    def _do_start(self) -> None:
        from repro.guest.process import Vma

        self._uffd = self.kernel.create_uffd(self.process)
        # MISSING mode too, so first touches are captured as dirty
        # (matches ufd-based checkpoint usage).
        mode = UfdMode.WRITE_PROTECT | UfdMode.MISSING
        vmas = self.process.space.vmas
        if not vmas:
            # No VMAs yet: register the whole address-space range so
            # later mmaps are covered (tracker started before the
            # workload allocated).
            vmas = [Vma(0, self.process.space.n_pages, "all")]
        for vma in vmas:
            self._uffd.register(vma, mode)
        self._uffd.write_protect()

    def _do_collect(self) -> np.ndarray:
        assert self._uffd is not None
        dirty = self._uffd.read_dirty()
        if dirty.size:
            # Re-arm the collected pages for the next interval.
            self._uffd.write_protect(dirty)
        return dirty

    def _do_stop(self) -> None:
        assert self._uffd is not None
        self._uffd.close()
        self._uffd = None
