"""Dirty-page completeness auditing against the oracle.

The paper's evaluation question 3 asks to what extent each technique
captures *all* dirty pages.  Under fault injection the answer is allowed
to be "not all" — but only **loudly**: every lost page must either be
recovered (resync, retry, fallback, lost-IPI sweep) or show up in a
surfaced counter the consumer can act on (ring ``total_dropped``, PML
circuit drop counters, swallowed-vmexit count, lost-IPI count).  A page
that is missing with every counter at zero is a *silent* loss — the one
failure mode a checkpoint/GC consumer cannot defend against — and the
auditor raises :class:`CompletenessViolation` on it.

Usage::

    auditor = CompletenessAuditor(kernel, process, tracker)
    auditor.start()
    ... workload ... auditor.collect() ...
    report = auditor.stop()       # raises on silent loss
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.tracking import DirtyPageTracker, Technique, make_tracker
from repro.errors import ReproError
from repro.guest.kernel import GuestKernel
from repro.guest.process import Process

__all__ = ["AuditReport", "CompletenessAuditor", "CompletenessViolation"]


class CompletenessViolation(ReproError):
    """A dirty page was lost with no surfaced counter explaining it."""


@dataclass
class AuditReport:
    """Outcome of one audited tracker run."""

    technique: str
    n_truth: int = 0
    n_captured: int = 0
    n_missed: int = 0
    capture_rate: float = 1.0
    #: Loss-surfacing counters (name -> count since :meth:`start`); any
    #: positive entry legitimises a miss.
    surfaced: dict[str, int] = field(default_factory=dict)
    #: Recovery activity (resyncs, retries, recovered IPIs, fallbacks) —
    #: diagnostic only, not loss surfacing.
    recovery: dict[str, int] = field(default_factory=dict)
    silent_loss: bool = False
    missed_vpns: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )

    @property
    def total_surfaced(self) -> int:
        return sum(self.surfaced.values())


class CompletenessAuditor:
    """Cross-check one tracker run against the oracle's ground truth.

    Runs the tracker and an :class:`~repro.core.techniques.oracle.OracleTracker`
    side by side over the same process; on :meth:`stop` the union of
    tracker collections must cover the union of oracle collections unless
    a loss-surfacing counter moved.
    """

    def __init__(
        self,
        kernel: GuestKernel,
        process: Process,
        tracker: DirtyPageTracker,
        raise_on_silent_loss: bool = True,
    ) -> None:
        self.kernel = kernel
        self.process = process
        self.tracker = tracker
        self.raise_on_silent_loss = raise_on_silent_loss
        self._oracle = make_tracker(Technique.ORACLE, kernel, process)
        self._truth: set[int] = set()
        self._captured: set[int] = set()
        self._marks: dict[str, int] = {}
        self._running = False

    # ------------------------------------------------------------------
    def _counters(self) -> dict[str, int]:
        # SMP: loss can surface on any vCPU, so sum across all of them.
        vcpus = self.kernel.vm.vcpus
        return {
            "pml_hyp_dropped": sum(vc.pml.hyp.n_dropped for vc in vcpus),
            "pml_guest_dropped": sum(vc.pml.guest.n_dropped for vc in vcpus),
            "pml_hyp_injected_drops": sum(
                vc.pml.hyp.n_injected_drops for vc in vcpus
            ),
            "pml_guest_injected_drops": sum(
                vc.pml.guest.n_injected_drops for vc in vcpus
            ),
            "vmexits_dropped": sum(vc.n_dropped_vmexits for vc in vcpus),
            "self_ipis_lost": sum(vc.interrupts.n_lost for vc in vcpus),
        }

    def _surfaced_since_start(self) -> dict[str, int]:
        now = self._counters()
        out = {k: now[k] - self._marks[k] for k in now}
        stats = getattr(self.tracker, "last_stats", None)
        out["tracker_dropped"] = int(getattr(stats, "dropped", 0) or 0)
        return out

    def _recovery_stats(self) -> dict[str, int]:
        stats = getattr(self.tracker, "last_stats", None)
        return {
            "n_resyncs": int(getattr(stats, "n_resyncs", 0) or 0),
            "n_retries": int(getattr(stats, "n_retries", 0) or 0),
            "n_recovered_ipis": int(getattr(stats, "n_recovered_ipis", 0) or 0),
            "n_fallbacks": int(getattr(self.tracker, "n_fallbacks", 0) or 0),
        }

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._marks = self._counters()
        self._oracle.start()
        self.tracker.start()
        # Flush anything the tracker's own start dirtied so both sides
        # observe the same interval from here on.
        self._oracle.collect()
        self._running = True

    def collect(self) -> np.ndarray:
        """One audited collection; returns the tracker's answer."""
        got = self.tracker.collect()
        truth = self._oracle.collect()
        self._captured.update(int(v) for v in got)
        self._truth.update(int(v) for v in truth)
        return got

    def stop(self) -> AuditReport:
        """Final collection + verdict; raises on silent loss."""
        if not self._running:
            raise ReproError("auditor stop() before start()")
        self.collect()
        # Tracker stats become unreadable after stop (attachment gone):
        # take the verdict inputs first.
        surfaced = self._surfaced_since_start()
        recovery = self._recovery_stats()
        self.tracker.stop()
        self._oracle.stop()
        self._running = False

        missed = np.array(
            sorted(self._truth - self._captured), dtype=np.int64
        )
        n_truth = len(self._truth)
        silent = bool(missed.size) and not any(
            v > 0 for v in surfaced.values()
        )
        report = AuditReport(
            technique=self.tracker.technique.value,
            n_truth=n_truth,
            n_captured=len(self._captured & self._truth),
            n_missed=int(missed.size),
            capture_rate=(
                len(self._captured & self._truth) / n_truth if n_truth else 1.0
            ),
            surfaced=surfaced,
            recovery=recovery,
            silent_loss=silent,
            missed_vpns=missed,
        )
        if silent and self.raise_on_silent_loss:
            raise CompletenessViolation(
                f"{report.technique}: {report.n_missed} dirty pages lost "
                f"with every loss counter at zero (first few: "
                f"{missed[:8].tolist()})"
            )
        return report
