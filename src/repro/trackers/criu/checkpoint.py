"""CRIU-style checkpointing with pluggable dirty-page tracking.

Reproduces the structure the paper measures (§VI-F):

* **MD (memory dump) phase** — find the pages to dump.  With */proc* this
  is interleaved with writing: CRIU "walks the process page table to get
  dirty pages and writes them to the disk as it finds them", so the MD
  timer is ~empty and the walk cost lands in MW.  With SPML/EPML the MD
  phase is the OoH collection (ring drain, plus — for SPML — the reverse
  mapping that makes its MD dominate, Fig. 8).
* **MW (memory write) phase** — write the pages to the image.  With the
  ring-buffer techniques this is one batch of exactly the dirty pages,
  nearly constant time; with /proc it includes the pagemap walk, which is
  why the paper sees up to 26x MW improvement (Fig. 7).

The OoH patch also skips /proc's initialization pause: PML activation is
immediate and does not interfere with the tracked process (§IV-E item 1).

:class:`CriuSession` owns the dump round (collect, write, MD/MW split);
:meth:`Criu.checkpoint` is CRIU's pre-dump loop over it: a full dump
while the process runs, pre-dump rounds while it keeps running, and a
final round with it frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.clock import World
from repro.core.costs import EV_DISK_WRITE, EV_TRACKING_ROUTINE
from repro.core.tracking import DirtyPageTracker, Technique, make_tracker
from repro.errors import CheckpointError
from repro.guest.kernel import GuestKernel
from repro.guest.process import Process
from repro.retry import Retrier
from repro.trackers.criu.images import CheckpointImage

__all__ = ["CriuPhaseTimes", "CriuReport", "Criu", "CriuSession"]


@dataclass
class CriuPhaseTimes:
    """Wall-clock (simulated) time spent in each checkpoint stage, us."""

    init_us: float = 0.0
    md_us: float = 0.0
    mw_us: float = 0.0
    freeze_us: float = 0.0
    total_us: float = 0.0


@dataclass
class CriuReport:
    technique: Technique
    phases: CriuPhaseTimes = field(default_factory=CriuPhaseTimes)
    rounds: int = 0
    pages_dumped: int = 0
    final_round_pages: int = 0
    #: Ring-buffer overflow losses observed by the tracking technique.
    #: A non-zero value means the image may miss dirtied pages and MUST
    #: be discarded by the caller.
    tracking_drops: int = 0


class Criu:
    """Checkpoint/restore for one guest kernel."""

    def __init__(
        self,
        kernel: GuestKernel,
        technique: Technique | str = Technique.PROC,
    ) -> None:
        self.kernel = kernel
        self.technique = (
            Technique(technique) if isinstance(technique, str) else technique
        )

    # ------------------------------------------------------------------
    # monitored-dump API (what the paper's Fig. 7-9 experiments measure):
    # begin tracking early, let the application run, then dump the pages
    # dirtied since — MD/MW phase attribution per technique.
    # ------------------------------------------------------------------
    def begin(self, process: Process) -> "CriuSession":
        """Start dirty tracking on ``process`` for later dumps."""
        clock = self.kernel.clock
        t0 = clock.now_us
        tracker = make_tracker(self.technique, self.kernel, process)
        tracker.start()
        return CriuSession(
            criu=self, process=process, tracker=tracker,
            init_us=clock.now_us - t0,
        )

    # ------------------------------------------------------------------
    def checkpoint(
        self,
        process: Process,
        predump_rounds: int = 0,
        run_between_rounds=None,
        threshold_pages: int | None = None,
    ) -> tuple[CheckpointImage, CriuReport]:
        """Checkpoint ``process``; optionally with iterative pre-dump.

        A full dump of the running process is followed by up to
        ``predump_rounds`` pre-dump rounds, each after
        ``run_between_rounds()`` has modelled the application running;
        the final round freezes the process.  With ``threshold_pages``,
        pre-dumping stops after the first round that dumps at most that
        many pages (the dirty set has converged), so a checkpoint that
        stopped early has ``report.rounds < predump_rounds + 2``.
        """
        if predump_rounds < 0:
            raise CheckpointError("predump_rounds must be >= 0")
        if predump_rounds > 0 and run_between_rounds is None:
            raise CheckpointError("pre-dump requires run_between_rounds")
        if threshold_pages is not None and threshold_pages < 0:
            raise CheckpointError("threshold_pages must be >= 0")
        clock = self.kernel.clock
        t_start = clock.now_us
        session = self.begin(process)
        report = CriuReport(self.technique, CriuPhaseTimes(session.init_us))
        try:
            session._full_round(report)
            report.rounds = 1
            for _ in range(predump_rounds):
                run_between_rounds()
                n = session._round(report)
                report.rounds += 1
                if threshold_pages is not None and n <= threshold_pages:
                    break
            t0 = clock.now_us
            self.kernel.stop_process(process)
            report.final_round_pages = session._round(report)
            report.rounds += 1
            self.kernel.resume_process(process)
            report.phases.freeze_us = clock.now_us - t0
        finally:
            session.finish()
        report.phases.total_us = clock.now_us - t_start
        return session.image, report


@dataclass
class CriuSession:
    """A monitored process awaiting dumps; owns the CRIU dump round."""

    criu: Criu
    process: Process
    tracker: DirtyPageTracker
    init_us: float
    image: CheckpointImage = field(init=False)
    dumps: list[CriuReport] = field(default_factory=list)
    _closed: bool = False
    _retrier: Retrier = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.image = CheckpointImage.for_process(self.process)
        # A round that hits a transient tracking failure retries the
        # collection (CRIU restarts the page scan) rather than failing.
        self._retrier = Retrier(self.criu.kernel.clock, World.TRACKER)

    @property
    def retries(self) -> int:
        """Transient collect failures retried with backoff so far."""
        return self._retrier.n_retries

    def dump(self, full: bool = False) -> CriuReport:
        """Freeze, dump (dirty pages, or everything if ``full``), thaw."""
        if self._closed:
            raise CheckpointError("dump on a finished CRIU session")
        kernel = self.criu.kernel
        clock = kernel.clock
        init_us = self.init_us if not self.dumps else 0.0
        report = CriuReport(self.criu.technique, CriuPhaseTimes(init_us), rounds=1)
        t_start = clock.now_us
        kernel.stop_process(self.process)
        if full:
            self._full_round(report)
            # Reset the tracking interval so the next dump is incremental.
            self._collect()
        else:
            self._round(report)
        kernel.resume_process(self.process)
        report.phases.freeze_us = clock.now_us - t_start
        report.phases.total_us = clock.now_us - t_start + report.phases.init_us
        self.dumps.append(report)
        return report

    def finish(self) -> CheckpointImage:
        if not self._closed:
            self.tracker.stop()
            self._closed = True
        return self.image

    # ------------------------------------------------------------------
    # the dump round
    # ------------------------------------------------------------------
    def _collect(self) -> np.ndarray:
        return self._retrier.call(self.tracker.collect)

    def _write(self, vpns: np.ndarray) -> None:
        """Read page contents, charge the image write (C_p work) and
        append the round to the image."""
        kernel = self.criu.kernel
        tokens = kernel.vm.mmu.read_page_contents(self.process.space.pt, vpns)
        n = int(vpns.size)
        kernel.clock.charge(
            n * kernel.costs.params.disk_write_us_per_page,
            World.TRACKER, EV_DISK_WRITE, n,
        )
        kernel.clock.count_only(EV_TRACKING_ROUTINE)
        self.image.add_round(vpns, tokens)

    def _full_round(self, report: CriuReport) -> None:
        """Dump every present page (CRIU's first, full dump)."""
        clock = self.criu.kernel.clock
        t0 = clock.now_us
        vpns = self.process.space.mapped_vpns()
        self._write(vpns)
        report.phases.mw_us += clock.now_us - t0
        report.pages_dumped += int(vpns.size)

    def _round(self, report: CriuReport) -> int:
        """Dump the present pages dirtied since the last collect; returns
        how many.  Phase attribution depends on the technique."""
        clock = self.criu.kernel.clock
        t0 = clock.now_us
        dirty = self._collect()
        stats = getattr(self.tracker, "last_stats", None)
        if stats is not None:
            report.tracking_drops = int(stats.dropped)
        if dirty.size:
            dirty = dirty[self.process.space.pt.present_mask(dirty)]
        if self.criu.technique in (Technique.SPML, Technique.EPML):
            # MD = OoH collection (SPML pays reverse mapping here).
            t1 = clock.now_us
            report.phases.md_us += t1 - t0
            t0 = t1
        # /proc (and ufd) write pages as the walk finds them, so their
        # collection cost stays in the write phase (paper §VI-F.a).
        self._write(dirty)
        report.phases.mw_us += clock.now_us - t0
        report.pages_dumped += int(dirty.size)
        return int(dirty.size)
