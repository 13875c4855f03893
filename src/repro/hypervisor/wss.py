"""Working-set-size estimation from EPT accessed bits.

The paper's related work (§VII) cites the authors' earlier result that
PML, extended to also log *read* pages, lets the hypervisor estimate a
VM's working set efficiently.  We implement the classic sampling form on
the same substrate: clear the EPT accessed bits, let the VM run an
interval, and count the pages whose accessed bit came back — no guest
cooperation, no page faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.ept import EPT_ACCESSED
from repro.hypervisor.vm import Vm

__all__ = ["WssSample", "WssEstimator"]


@dataclass
class WssSample:
    interval_index: int
    accessed_pages: int
    accessed_mb: float


@dataclass
class WssEstimator:
    """Periodic accessed-bit sampling over one VM."""

    vm: Vm
    samples: list[WssSample] = field(default_factory=list)

    def _clear_accessed(self) -> None:
        # A cleared EPT A bit makes the MMU's TLB fast path decline the
        # page's next batch, so the walk re-sets it and the sample counts
        # every page the interval touched, TLB-cached or not.
        self.vm.ept.clear_accessed()

    def _count_accessed(self) -> int:
        return int(((self.vm.ept.flags & EPT_ACCESSED) != 0).sum())

    def sample(self, run_interval: Callable[[], None]) -> WssSample:
        """Clear, run one interval, count."""
        self._clear_accessed()
        run_interval()
        n = self._count_accessed()
        s = WssSample(
            interval_index=len(self.samples),
            accessed_pages=n,
            accessed_mb=n * 4096 / (1024 * 1024),
        )
        self.samples.append(s)
        return s

    def estimate(self, run_interval: Callable[[], None], intervals: int) -> float:
        """Average working set (pages) over ``intervals`` samples."""
        if intervals < 1:
            raise ConfigurationError("intervals must be >= 1")
        for _ in range(intervals):
            self.sample(run_interval)
        recent = self.samples[-intervals:]
        return float(np.mean([s.accessed_pages for s in recent]))

    def estimate_pages(
        self, run_interval: Callable[[], None], intervals: int
    ) -> int:
        """:meth:`estimate` rounded up to whole pages — the form the fleet
        placement path consumes (a fractional page still occupies one)."""
        return int(np.ceil(self.estimate(run_interval, intervals)))
