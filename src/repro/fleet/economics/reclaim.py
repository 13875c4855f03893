"""Host-side memory-economics controller: pressure-driven reclaim.

One :class:`HostEconomics` per overcommitted :class:`~repro.fleet.host.Host`
(``overcommit_ratio > 1.0``).  It owns the resident guests' balloon
drivers and frees host frames on demand:

* **admission** — a new VM's eager EPT allocation needs its whole
  footprint in physical frames; :meth:`prepare_admission` balloons
  resident guests down to make room ("boot big, balloon down");
* **refault** — a deflate needs host frames; :meth:`ensure_free` reclaims
  them from the guests with the most excess over their WSS targets;
* **rebalance** — an epoch-end sweep restoring the free-frame slack the
  next refault burst will draw from.

Victim selection is deterministic: guests ranked by reclaimable excess
(resident pages minus the hysteresis-gated WSS target), name-ordered
tie-breaks, voluntary pass before the forced pass (which shrinks below
target but never below :data:`MIN_RESIDENT_PAGES` — the thrash regime the
overcommit frontier measures).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, OutOfFramesError
from repro.fleet.economics.balloon import BalloonDriver
from repro.obs import trace as otr
from repro.obs.events import EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.host import FleetVm, Host

__all__ = ["HostEconomics"]

#: Admission headroom over the estimated WSS (fractional).
ADMISSION_HEADROOM = 0.10
#: Free-frame float the controller keeps for refault bursts.
SLACK_PAGES = 64
#: Forced reclaim never shrinks a guest below this many resident pages.
MIN_RESIDENT_PAGES = 16
#: Reclaim batch cap per victim visit (bounds per-fault latency).
MAX_BATCH_PAGES = 512


class HostEconomics:
    """Reclaim controller + balloon registry for one overcommitted host."""

    def __init__(self, host: "Host") -> None:
        self.host = host
        self.drivers: dict[str, BalloonDriver] = {}
        self.n_pressure_events = 0

    # -- lifecycle -----------------------------------------------------
    def attach(self, fvm: "FleetVm") -> BalloonDriver:
        """Install the balloon driver on a freshly-placed guest.

        The guest must keep a frame float: refault batches allocate guest
        frames *before* the driver's deflate restores them, so the
        footprint must exceed the workload by at least one access batch.
        """
        spec = fvm.spec
        if spec.mem_pages - spec.workload_pages < spec.writes_per_round:
            raise ConfigurationError(
                f"{fvm.name}: overcommit needs a guest-frame float of at "
                f"least writes_per_round ({spec.writes_per_round}) pages; "
                f"footprint {spec.mem_pages} - workload "
                f"{spec.workload_pages} is too tight"
            )
        driver = BalloonDriver(fvm, self)
        self.drivers[fvm.name] = driver
        return driver

    def can_manage(self, fvm: "FleetVm") -> bool:
        """Can a balloon be installed on this (bound) guest?  False when
        the process already owns a userfaultfd (e.g. a post-copy arrival
        mid-drain) or the footprint leaves no guest-frame float — such a
        guest simply cannot be a reclaim victim."""
        spec = fvm.spec
        return (
            fvm.proc is not None
            and fvm.proc.uffd is None
            and spec.mem_pages - spec.workload_pages >= spec.writes_per_round
        )

    def detach(self, name: str) -> None:
        driver = self.drivers.pop(name, None)
        if driver is not None:
            driver.close()

    # -- aggregate stats -----------------------------------------------
    @property
    def reclaimed_pages(self) -> int:
        return sum(d.reclaimed_pages for d in self.drivers.values())

    @property
    def refault_pages(self) -> int:
        return sum(d.refault_pages for d in self.drivers.values())

    @property
    def refault_faults(self) -> int:
        return sum(d.refault_faults for d in self.drivers.values())

    @property
    def ballooned_pages(self) -> int:
        return sum(d.ballooned_pages for d in self.drivers.values())

    # -- reclaim -------------------------------------------------------
    def _reclaimable(self, driver: BalloonDriver, forced: bool) -> int:
        floor = MIN_RESIDENT_PAGES
        if not forced:
            floor = max(floor, driver.fvm.wss.target_pages)
        return max(0, driver.resident_pages - floor)

    def _pick_victim(
        self,
        requester: BalloonDriver | None,
        forced: bool,
        exclude: set[str] | None = None,
    ) -> BalloonDriver | None:
        """Deterministic ranking: most reclaimable excess wins, names
        break ties; the requester is only eligible when no other guest
        has anything to give (its in-flight and active-batch pages are
        excluded by the driver itself); ``exclude`` skips victims that
        already proved dry this pass."""
        exclude = exclude or set()
        best: BalloonDriver | None = None
        best_key: tuple[int, str] | None = None
        for name in sorted(self.drivers):
            driver = self.drivers[name]
            if driver is requester or name in exclude:
                continue
            excess = self._reclaimable(driver, forced)
            if excess <= 0:
                continue
            key = (-excess, name)
            if best_key is None or key < best_key:
                best, best_key = driver, key
        if best is not None:
            return best
        if (
            requester is not None
            and requester.fvm.name not in exclude
            and self._reclaimable(requester, forced) > 0
        ):
            return requester
        return None

    def ensure_free(
        self, n_pages: int, requester: BalloonDriver | None = None
    ) -> int:
        """Reclaim until the host has ``n_pages`` free frames; returns the
        number of pages reclaimed.  A victim whose accountable excess is
        shadowed (in-flight refaults, the active access batch) yields
        zero and is set aside for the pass rather than aborting it.
        Raises :class:`~repro.errors.OutOfFramesError` when even forced
        reclaim cannot reach the goal (hot demand genuinely exceeds the
        host)."""
        freed = 0
        dry: set[str] = set()
        while self.host.free_pages < n_pages:
            deficit = n_pages - self.host.free_pages
            victim = self._pick_victim(requester, forced=False, exclude=dry)
            forced = False
            if victim is None:
                victim = self._pick_victim(requester, forced=True, exclude=dry)
                forced = True
            if victim is None:
                raise OutOfFramesError(
                    f"host {self.host.host_id}: reclaim exhausted with "
                    f"{deficit} pages still needed ({n_pages} requested, "
                    f"{self.host.free_pages} free)"
                )
            take = min(
                deficit,
                self._reclaimable(victim, forced),
                MAX_BATCH_PAGES,
            )
            got = victim.inflate(take)
            if got == 0:
                dry.add(victim.fvm.name)
                continue
            dry.clear()  # progress: earlier dry victims may have thawed
            freed += got
        if freed and otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.RECLAIM_PRESSURE,
                host_id=self.host.host_id,
                n_pages=freed,
                free_pages=int(self.host.free_pages),
            )
        if freed:
            self.n_pressure_events += 1
        return freed

    def prepare_admission(self, mem_pages: int) -> int:
        """Make room for a new VM's eager footprint plus the slack."""
        return self.ensure_free(mem_pages + SLACK_PAGES)

    def rebalance(self) -> int:
        """Epoch-end sweep: restore the free-frame slack."""
        if self.host.free_pages >= SLACK_PAGES:
            return 0
        return self.ensure_free(SLACK_PAGES)
