"""Per-VM working-set time series: the economics layer's demand signal.

Overcommit decisions need more than the last sample: admission wants a
*stable* demand estimate that does not chase one quiet interval, and
reclaim needs a floor it must never shrink a VM below.
:class:`WssHistory` keeps a bounded window of accessed-bit samples
(recorded by :meth:`repro.fleet.host.FleetVm.sample_wss`) and derives
three estimators:

* **planning** — the placement value the orchestrator publishes (ceil of
  the mean over the most recent sampling batch);
* **EWMA** — exponentially-smoothed demand, the "typical" working set;
* **target** — the reclaim floor: max(EWMA, high percentile) gated by
  hysteresis, so one noisy sample cannot flap the balloon.

Histories start pessimistic at the VM's whole workload footprint — an
unsampled VM is assumed to need everything it could touch.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["WssHistory"]

#: EWMA smoothing factor (weight of the newest sample).
ALPHA = 0.3
#: Percentile backing the reclaim target (robust peak).
PERCENTILE = 90.0
#: Relative change the target must see before it moves.
HYSTERESIS = 0.15
#: Samples retained.
WINDOW = 32


class WssHistory:
    """Bounded accessed-bit sample series with smoothed estimators."""

    def __init__(self, initial_pages: int) -> None:
        if initial_pages < 1:
            raise ConfigurationError(
                f"initial_pages must be >= 1: {initial_pages}"
            )
        self.initial_pages = initial_pages
        self.samples: deque[int] = deque(maxlen=WINDOW)
        self._ewma: float | None = None
        self._planning = initial_pages
        self._target = initial_pages

    # -- recording -----------------------------------------------------
    def record(self, accessed_pages: int) -> None:
        """Append one accessed-bit sample; updates EWMA and the target."""
        n = int(accessed_pages)
        if n < 0:
            raise ConfigurationError(f"accessed_pages must be >= 0: {n}")
        self.samples.append(n)
        self._ewma = float(n) if self._ewma is None else (
            ALPHA * n + (1.0 - ALPHA) * self._ewma
        )
        self._update_target()

    def refresh_planning(self, intervals: int) -> int:
        """Set planning to ceil(mean of the last ``intervals`` samples):
        a fractional page still occupies a frame."""
        if intervals < 1:
            raise ConfigurationError(f"intervals must be >= 1: {intervals}")
        if not self.samples:
            return self._planning
        recent = list(self.samples)[-intervals:]
        self._planning = int(np.ceil(float(np.mean(recent))))
        return self._planning

    # -- estimators ----------------------------------------------------
    @property
    def planning_pages(self) -> int:
        """The placement/admission estimate."""
        return self._planning

    @property
    def ewma_pages(self) -> int:
        if self._ewma is None:
            return self._planning
        return int(np.ceil(self._ewma))

    @property
    def percentile_pages(self) -> int:
        if not self.samples:
            return self._planning
        return int(np.ceil(float(np.percentile(list(self.samples), PERCENTILE))))

    @property
    def target_pages(self) -> int:
        """Hysteresis-gated reclaim floor: the balloon must leave the VM
        at least this many resident pages."""
        return self._target

    def _update_target(self) -> None:
        candidate = max(self.ewma_pages, self.percentile_pages)
        if self._target <= 0:
            self._target = max(1, candidate)
            return
        rel = abs(candidate - self._target) / float(self._target)
        if rel > HYSTERESIS:
            self._target = max(1, candidate)
