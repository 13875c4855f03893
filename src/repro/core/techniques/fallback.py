"""Graceful degradation: a tracker that falls forward through techniques.

The paper's techniques form a natural preference order — EPML (fastest,
needs the ISA extension), SPML (hypervisor-assisted), /proc soft-dirty
(always available).  A deployment cannot assume the fancy mechanisms keep
working: hypercalls bounce, self-IPIs get lost, buffers race.  The
:class:`FallbackTracker` wraps the chain and degrades after
``failure_threshold`` *consecutive* recoverable failures, so a single
transient blip never causes a switch but a persistently broken mechanism
is abandoned.

Completeness contract: a failed collection interval has no reliable log,
so the tracker returns the conservative answer — every mapped page —
exactly like the OoH module's resync path; inner OoH trackers also run
with ``resync_on_loss`` enabled.  The chain therefore never *silently*
loses a dirty page, which the :class:`~repro.faults.auditor.CompletenessAuditor`
verifies under chaos plans.
"""

from __future__ import annotations

import numpy as np

from repro.core.ooh import OohModule
from repro.core.tracking import (
    DirtyPageTracker,
    Technique,
    make_tracker,
    register_technique,
    report_all_mapped,
)
from repro.errors import (
    FaultInjectedError,
    ResyncRequired,
    TrackingError,
    TransientError,
)
from repro.obs import trace as otr
from repro.obs.events import EventKind
from repro.retry import is_transient

__all__ = ["FallbackTracker"]

DEFAULT_CHAIN = (Technique.EPML, Technique.SPML, Technique.PROC)


def _recoverable(exc: BaseException) -> bool:
    return is_transient(exc) or isinstance(
        exc, (TransientError, FaultInjectedError, ResyncRequired)
    )


@register_technique
class FallbackTracker(DirtyPageTracker):
    technique = Technique.FALLBACK

    def __init__(
        self,
        kernel,
        process,
        chain: tuple[Technique, ...] = DEFAULT_CHAIN,
        failure_threshold: int = 3,
    ) -> None:
        super().__init__(kernel, process)
        if not chain:
            raise TrackingError("fallback chain must not be empty")
        if failure_threshold < 1:
            raise TrackingError(
                f"failure_threshold must be >= 1: {failure_threshold}"
            )
        self.chain = tuple(chain)
        self.failure_threshold = failure_threshold
        self._chain_pos = 0
        self._inner: DirtyPageTracker | None = None
        self._consecutive_failures = 0
        self.n_fallbacks = 0
        #: ``(from, to, reason)`` triples, oldest first.
        self.fallback_history: list[tuple[str, str, str]] = []

    # ------------------------------------------------------------------
    @property
    def current_technique(self) -> Technique:
        return self.chain[self._chain_pos]

    @property
    def last_stats(self):
        return getattr(self._inner, "last_stats", None)

    def _make_inner(self) -> DirtyPageTracker:
        tech = self.chain[self._chain_pos]
        kwargs = {}
        if tech in (Technique.EPML, Technique.SPML):
            kwargs["resync_on_loss"] = True
        return make_tracker(tech, self.kernel, self.process, **kwargs)

    # ------------------------------------------------------------------
    def _do_start(self) -> None:
        self._start_inner("start failed")

    def _start_inner(self, context: str) -> None:
        """Start the current chain entry, falling forward on failure."""
        while True:
            try:
                inner = self._make_inner()
                inner.start()
                self._inner = inner
                return
            except Exception as exc:
                if not _recoverable(exc):
                    raise
                OohModule.shared(self.kernel).force_detach()
                if not self._advance(f"{context}: {exc}"):
                    raise

    def _advance(self, reason: str) -> bool:
        """Move to the next chain entry; False when the chain is spent."""
        if self._chain_pos + 1 >= len(self.chain):
            return False
        old = self.chain[self._chain_pos]
        self._chain_pos += 1
        self.n_fallbacks += 1
        new = self.chain[self._chain_pos]
        self.fallback_history.append((old.value, new.value, reason))
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.FALLBACK_TRANSITION,
                **{"from": old.value, "to": new.value, "reason": reason},
            )
        self._consecutive_failures = 0
        return True

    # ------------------------------------------------------------------
    def _do_collect(self) -> np.ndarray:
        assert self._inner is not None
        try:
            out = self._inner.collect()
            self._consecutive_failures = 0
            return out
        except Exception as exc:
            if not _recoverable(exc):
                raise
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._fall_forward(str(exc))
            # A failed interval has no reliable log: every mapped page.
            return report_all_mapped(self.kernel, self.process)

    def _fall_forward(self, reason: str) -> None:
        assert self._inner is not None
        try:
            self._inner.stop()
        except Exception:
            # The orderly teardown path is broken too: crash-only detach.
            OohModule.shared(self.kernel).force_detach()
            self._inner.abort()
        self._inner = None
        if self._advance(f"collect failures: {reason}"):
            self._start_inner("fallback start failed")
        else:
            # Chain exhausted: restart the last entry and keep limping.
            self._consecutive_failures = 0
            self._start_inner("restart failed")

    # ------------------------------------------------------------------
    def _do_stop(self) -> None:
        if self._inner is None:
            return
        try:
            self._inner.stop()
        except Exception as exc:
            if not _recoverable(exc):
                raise
            OohModule.shared(self.kernel).force_detach()
            self._inner.abort()
        self._inner = None
