"""Pre-copy live migration driven by hypervisor-level PML.

This is PML's *original* purpose (paper §II-B) and exists here for two
reasons: (1) it exercises the hypervisor's own PML consumer so the
guest/hypervisor coordination flags (``enabled_by_guest`` /
``enabled_by_hyp``) are tested against a real second user, and (2) it
gives the examples a realistic "hypervisor side" scenario.

The algorithm is the standard iterative pre-copy: send all pages, then
repeatedly send the pages dirtied during the previous send round (harvested
from PML), until the dirty set is small enough for a brief stop-and-copy.

Page transfers go through a :class:`PageSender`.  The default
:class:`DirectSender` charges the historical flat per-page cost
(``CostParams.net_send_us_per_page``); the fleet layer substitutes a
:class:`repro.net.transport.TransportSender` so concurrent migrations
contend for link bandwidth.  :meth:`LiveMigration.steps` exposes the round
loop as a generator so an orchestrator can interleave several migrations
deterministically; :meth:`LiveMigration._precopy_policy` is the seam where
a subclass abandons pre-copy (post-copy fallback) without forcing the
stop-and-copy send.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Protocol

import numpy as np

from repro.core.clock import World
from repro.core.costs import EV_MIGRATION_SEND
from repro.errors import ConfigurationError
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.vm import Vm
from repro.obs import trace as otr
from repro.obs.events import EventKind
from repro.retry import is_transient

__all__ = [
    "MigrationReport",
    "LiveMigration",
    "PageSender",
    "DirectSender",
    "EV_MIGRATION_SEND",
]

#: Transient harvest failures retried per harvest before the migration
#: gives up.
ROUND_RETRY_LIMIT = 2
#: Consecutive non-shrinking rounds before a forced stop-and-copy.
NO_PROGRESS_LIMIT = 3


class PageSender(Protocol):
    """Charges the simulated cost of moving ``n_pages`` to a destination."""

    #: Effective microseconds per page under current conditions.
    us_per_page: float

    def send(self, n_pages: int) -> float:
        """Charge the clock for ``n_pages`` and return the elapsed us."""
        ...


class DirectSender:
    """Flat-rate sender: the pre-fleet ``n_pages * page_send_us`` model."""

    def __init__(self, hypervisor: Hypervisor, us_per_page: float) -> None:
        self.hypervisor = hypervisor
        self.us_per_page = us_per_page

    def send(self, n_pages: int) -> float:
        us = n_pages * self.us_per_page
        self.hypervisor.clock.charge(
            us, World.HYPERVISOR, EV_MIGRATION_SEND, n_pages
        )
        return us


@dataclass
class MigrationReport:
    """Outcome of one live migration."""

    rounds: int = 0
    pages_per_round: list[int] = field(default_factory=list)
    total_pages_sent: int = 0
    downtime_us: float = 0.0
    total_us: float = 0.0
    converged: bool = False
    #: Why pre-copy was abandoned early (``None`` when it ran to
    #: convergence or the plain round budget).
    aborted_reason: str | None = None
    #: Transient harvest failures retried within the round budget.
    round_retries: int = 0
    #: PML-full vmexits that were never delivered during this migration;
    #: non-zero forces a conservative full resend at stop-and-copy.
    lost_pml_vmexits: int = 0
    #: GPFNs still dirty when a policy abandoned pre-copy (post-copy
    #: fallback); ``None`` on every other exit path.
    remaining_pages: np.ndarray | None = None


class LiveMigration:
    """Iterative pre-copy migration of one VM."""

    def __init__(
        self,
        hypervisor: Hypervisor,
        vm: Vm,
        page_send_us: float | None = None,
        max_rounds: int = 30,
        stop_threshold_pages: int = 512,
        sender: PageSender | None = None,
    ) -> None:
        if max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        self.hypervisor = hypervisor
        self.vm = vm
        if sender is None:
            if page_send_us is None:
                page_send_us = hypervisor.costs.params.net_send_us_per_page
            sender = DirectSender(hypervisor, page_send_us)
        elif page_send_us is None:
            page_send_us = getattr(
                sender, "us_per_page",
                hypervisor.costs.params.net_send_us_per_page,
            )
        self.sender = sender
        self.page_send_us = page_send_us
        self.max_rounds = max_rounds
        self.stop_threshold_pages = stop_threshold_pages

    def _send(self, n_pages: int) -> float:
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(EventKind.MIGRATION_ROUND, n_pages=int(n_pages))
            otr.ACTIVE.emit(EventKind.MIGRATION_PAGE_SEND, n_pages=int(n_pages))
        return self.sender.send(int(n_pages))

    def _harvest(self, report: MigrationReport) -> np.ndarray:
        """Harvest with a bounded retry budget for transient failures."""
        attempt = 0
        while True:
            try:
                return self.hypervisor.harvest_vm_dirty(self.vm)
            except Exception as exc:
                if not is_transient(exc) or attempt >= ROUND_RETRY_LIMIT:
                    report.aborted_reason = "harvest_failed"
                    raise
                attempt += 1
                report.round_retries += 1

    def _final_pages(
        self, report: MigrationReport, dirty: np.ndarray, vmexit_mark: int
    ) -> np.ndarray:
        """Stop-and-copy page set, widened to *all* mapped pages if any
        PML-full vmexit was swallowed (the lost batch could hold anything)."""
        lost = sum(vc.n_dropped_vmexits for vc in self.vm.vcpus) - vmexit_mark
        if lost > 0:
            report.lost_pml_vmexits = lost
            return np.nonzero(self.vm.ept.hpfn >= 0)[0]
        return dirty

    def _precopy_policy(
        self, report: MigrationReport, dirty: np.ndarray
    ) -> str | None:
        """Per-round policy hook, called after the convergence check.

        A non-``None`` return abandons pre-copy *without* the forced
        stop-and-copy send: the caller owns what happens to the dirty set
        (recorded in ``report.remaining_pages``).  The base class never
        abandons.
        """
        return None

    def steps(
        self,
        workload_round: Callable[[], None],
        initial_pages: np.ndarray | None = None,
    ) -> Iterator[MigrationReport]:
        """The migration round loop as a generator.

        Yields the (mutating) report after the bulk round and after every
        iterative round — the orchestrator's interleaving points — and
        once more after the final state is settled.  Draining the
        generator is exactly :meth:`migrate`.
        """
        report = MigrationReport()
        clock = self.hypervisor.clock
        start = clock.now_us
        vmexit_mark = sum(vc.n_dropped_vmexits for vc in self.vm.vcpus)

        self.hypervisor.enable_vm_dirty_logging(self.vm)
        try:
            if initial_pages is None:
                initial_pages = np.nonzero(self.vm.ept.hpfn >= 0)[0]
            # Round 0: bulk copy of all pages while the guest keeps running.
            self.vm.ept.clear_dirty()
            workload_round()
            report.pages_per_round.append(int(initial_pages.size))
            report.total_pages_sent += int(initial_pages.size)
            self._send(int(initial_pages.size))
            report.rounds = 1
            yield report

            prev_dirty: int | None = None
            stalled = 0
            forced = False
            pending: np.ndarray | None = None
            while report.rounds < self.max_rounds:
                dirty = self._harvest(report)
                if dirty.size <= self.stop_threshold_pages:
                    # Stop-and-copy: guest paused for the final transfer.
                    dirty = self._final_pages(report, dirty, vmexit_mark)
                    report.downtime_us = self._send(int(dirty.size))
                    report.pages_per_round.append(int(dirty.size))
                    report.total_pages_sent += int(dirty.size)
                    report.converged = True
                    break
                reason = self._precopy_policy(report, dirty)
                if reason is not None:
                    # Policy abandon (e.g. post-copy fallback): this
                    # round's harvest cleared the dirty bits, so the set
                    # rides out through the report instead of a send.
                    report.aborted_reason = reason
                    report.remaining_pages = self._final_pages(
                        report, dirty, vmexit_mark
                    )
                    break
                # No-progress bailout: a dirty set that refuses to shrink
                # for several consecutive rounds will never converge, so
                # stop burning rounds and go straight to stop-and-copy.
                if prev_dirty is not None and int(dirty.size) >= prev_dirty:
                    stalled += 1
                    if stalled >= NO_PROGRESS_LIMIT:
                        report.aborted_reason = "no_progress"
                        # This round's harvest cleared the dirty bits, so
                        # its pages must ride along to stop-and-copy.
                        pending = dirty
                        forced = True
                        break
                else:
                    stalled = 0
                prev_dirty = int(dirty.size)
                workload_round()
                report.pages_per_round.append(int(dirty.size))
                report.total_pages_sent += int(dirty.size)
                self._send(int(dirty.size))
                report.rounds += 1
                yield report
            else:
                forced = True
            if forced:
                # Convergence failure: forced stop-and-copy of what's left.
                dirty = self._harvest(report)
                if pending is not None:
                    dirty = np.union1d(pending, dirty)
                dirty = self._final_pages(report, dirty, vmexit_mark)
                report.downtime_us = self._send(int(dirty.size))
                report.pages_per_round.append(int(dirty.size))
                report.total_pages_sent += int(dirty.size)
        finally:
            self.hypervisor.disable_vm_dirty_logging(self.vm)
        report.total_us = clock.now_us - start
        yield report

    def migrate(
        self,
        workload_round: Callable[[], None],
        initial_pages: np.ndarray | None = None,
    ) -> MigrationReport:
        """Run a migration while ``workload_round`` mutates guest memory.

        ``workload_round`` is invoked once per pre-copy round to model the
        guest continuing to run; ``initial_pages`` defaults to every
        currently-EPT-mapped guest page.
        """
        report: MigrationReport | None = None
        for report in self.steps(workload_round, initial_pages):
            pass
        assert report is not None
        return report
