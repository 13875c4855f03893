"""Simulated clock and per-world time accounting.

The paper measures how a dirty-page-tracking technique splits time between
four "worlds": the tracked application, the tracker (technique code ``C_x``
plus tracking routine ``C_p``), the guest kernel, and the hypervisor.  The
VM under test has a single dedicated vCPU and the tracker runs in the same
thread as the tracked application (paper §VI-B), so simulated wall-clock
time is simply the sum of every charge: whenever the tracker, kernel or
hypervisor runs, the tracked application is *not* running.

:class:`SimClock` is that single timeline.  Every charge names a
:class:`World` and an event label; the clock keeps

* ``now_us``           — total elapsed simulated time,
* per-world totals     — e.g. time spent in the hypervisor,
* per-event totals     — e.g. total time spent in ``pf_user`` events,
* per-event counts     — e.g. how many page faults occurred.

The event ledger is what the paper's Formulas 1-4 consume (§VI-B): they
estimate tracker/tracked execution time from event counts times unit costs,
and we validate those estimates against the clock's measured totals exactly
as the paper validates against real hardware.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

__all__ = ["World", "SimClock", "ClockSnapshot"]


class World(enum.Enum):
    """Who is consuming CPU time for a given charge."""

    TRACKED = "tracked"
    TRACKER = "tracker"
    KERNEL = "kernel"
    HYPERVISOR = "hypervisor"
    OTHER = "other"


@dataclass(frozen=True)
class ClockSnapshot:
    """Immutable copy of a clock's counters, used to measure intervals."""

    now_us: float
    world_us: dict[str, float]
    event_us: dict[str, float]
    event_count: dict[str, int]


class SimClock:
    """Single-timeline simulated clock with event attribution.

    All durations are in microseconds (the unit of the paper's Table Va).
    """

    def __init__(self) -> None:
        self.now_us: float = 0.0
        #: Keyed on ``World.value``: a str hashes faster than an enum member.
        self._world_us: Counter[str] = Counter()
        self._event_us: Counter[str] = Counter()
        self._event_count: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def charge(self, us: float, world: World, event: str, count: int = 1) -> None:
        """Advance time by ``us`` microseconds attributed to ``world``.

        ``count`` records how many occurrences of ``event`` this charge
        covers (batch charging: one call may account for, say, 512 logged
        pages).  ``us`` is the *total* time for all ``count`` occurrences.
        """
        if us < 0:
            raise ValueError(f"negative charge: {us} us for event {event!r}")
        if count < 0:
            raise ValueError(f"negative count: {count} for event {event!r}")
        self.now_us += us
        self._world_us[world.value] += us
        self._event_us[event] += us
        self._event_count[event] += count

    def count_only(self, event: str, count: int = 1) -> None:
        """Record occurrences of ``event`` with no time cost."""
        if count < 0:
            raise ValueError(f"negative count: {count} for event {event!r}")
        self._event_count[event] += count

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def world_us(self, world: World) -> float:
        return float(self._world_us[world.value])

    def event_us(self, event: str) -> float:
        return float(self._event_us[event])

    def event_count(self, event: str) -> int:
        return int(self._event_count[event])

    def events(self) -> dict[str, int]:
        """All event counts seen so far."""
        return dict(self._event_count)

    def snapshot(self) -> ClockSnapshot:
        return ClockSnapshot(
            now_us=self.now_us,
            world_us={w: float(v) for w, v in self._world_us.items()},
            event_us=dict(self._event_us),
            event_count=dict(self._event_count),
        )

    # ------------------------------------------------------------------
    # interval measurement
    # ------------------------------------------------------------------
    def since(self, snap: ClockSnapshot) -> ClockSnapshot:
        """Delta between now and an earlier :meth:`snapshot`."""
        world_us = {
            w.value: float(self._world_us[w.value]) - snap.world_us.get(w.value, 0.0)
            for w in World
        }
        event_us = {
            e: float(v) - snap.event_us.get(e, 0.0) for e, v in self._event_us.items()
        }
        event_count = {
            e: int(v) - snap.event_count.get(e, 0)
            for e, v in self._event_count.items()
        }
        return ClockSnapshot(
            now_us=self.now_us - snap.now_us,
            world_us=world_us,
            event_us=event_us,
            event_count=event_count,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now_us={self.now_us:.3f})"


@dataclass
class StopWatch:
    """Convenience pairing of a clock and a start snapshot."""

    clock: SimClock
    start: ClockSnapshot = field(init=False)

    def __post_init__(self) -> None:
        self.start = self.clock.snapshot()

    def elapsed(self) -> ClockSnapshot:
        return self.clock.since(self.start)
