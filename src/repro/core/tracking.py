"""The dirty-page-tracking API: one interface, five techniques.

Trackers (CRIU, Boehm GC, user code) program against
:class:`DirtyPageTracker`:

* :meth:`~DirtyPageTracker.start` — the paper's *initialization* phase;
* the *monitoring* phase is implicit (the tracked workload runs);
* :meth:`~DirtyPageTracker.collect` — the *collection* phase: VPNs
  dirtied since the previous collect (or since start);
* :meth:`~DirtyPageTracker.stop` — teardown.

Technique selection is by :class:`Technique` enum or name via
:func:`make_tracker`, which is what the benchmark harness sweeps.
"""

from __future__ import annotations

import abc
import enum

import numpy as np

from repro.core.clock import World
from repro.errors import TrackingError
from repro.guest.kernel import GuestKernel
from repro.guest.process import Process
from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = [
    "Technique",
    "DirtyPageTracker",
    "available_modes",
    "make_tracker",
    "register_technique",
    "report_all_mapped",
]


class Technique(enum.Enum):
    """The tracking techniques the paper compares (§VI)."""

    PROC = "proc"
    UFD = "ufd"
    SPML = "spml"
    EPML = "epml"
    ORACLE = "oracle"
    #: Graceful-degradation chain: EPML -> SPML -> /proc, falling forward
    #: after consecutive failures (robustness layer, DESIGN.md §7).
    FALLBACK = "fallback"


class DirtyPageTracker(abc.ABC):
    """Track which pages of one process get written."""

    technique: Technique

    def __init__(self, kernel: GuestKernel, process: Process) -> None:
        self.kernel = kernel
        self.process = process
        self._started = False
        self.n_collections = 0

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Initialization phase (paper Fig. 1)."""
        if self._started:
            raise TrackingError(f"{self.technique.value} tracker already started")
        self._do_start()
        self._started = True

    def collect(self) -> np.ndarray:
        """Dirty VPNs since the previous collect; re-arms tracking."""
        if not self._started:
            raise TrackingError("collect before start")
        self.n_collections += 1
        out = self._do_collect()
        out = np.asarray(out, dtype=np.int64)
        if otr.ACTIVE is not None:
            s = otr.ACTIVE
            fields = {"technique": self.technique.value, "n_vpns": int(out.size)}
            if s.detail:
                # The reported set itself, so trace invariants can check
                # it against the WRITE events that preceded this collect.
                fields["vpns"] = [int(x) for x in np.sort(out)]
            s.emit(EventKind.COLLECT, **fields)
        return out

    def stop(self) -> None:
        if not self._started:
            return
        self._do_stop()
        self._started = False

    def abort(self) -> None:
        """Crash-only stop: mark not-started without running teardown.

        Used by recovery paths when the orderly ``_do_stop`` is itself
        failing; the caller is responsible for whatever force-cleanup the
        backing mechanism needs (e.g. ``OohModule.force_detach``).
        """
        self._started = False

    def __enter__(self) -> "DirtyPageTracker":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- hooks ---------------------------------------------------------------
    @abc.abstractmethod
    def _do_start(self) -> None: ...

    @abc.abstractmethod
    def _do_collect(self) -> np.ndarray: ...

    @abc.abstractmethod
    def _do_stop(self) -> None: ...


def report_all_mapped(kernel: GuestKernel, process: Process) -> np.ndarray:
    """Every mapped VPN of ``process``: the conservative answer for an
    interval whose log was lost, charged like the /proc pagemap walk that
    enumerates the VMA."""
    kernel.clock.charge(
        kernel.costs.pt_walk_user_us(process.space.n_pages),
        World.TRACKER,
        "conservative_resync",
    )
    return process.space.pt.mapped_vpns()


_REGISTRY: dict[Technique, type[DirtyPageTracker]] = {}


def register_technique(cls: type[DirtyPageTracker]) -> type[DirtyPageTracker]:
    """Class decorator adding a tracker implementation to the registry."""
    technique = getattr(cls, "technique", None)
    if not isinstance(technique, Technique):
        raise TrackingError(f"{cls.__name__} lacks a technique attribute")
    _REGISTRY[technique] = cls
    return cls


def available_modes() -> tuple[str, ...]:
    """Mode strings with a registered implementation, in enum order.

    The serverless facade (and anything else selecting a technique by
    string) sweeps this instead of hard-coding the technique list, so a
    newly registered technique is picked up everywhere at once.
    """
    from repro.core import techniques as _impls  # noqa: F401

    return tuple(t.value for t in Technique if t in _REGISTRY)


def make_tracker(
    technique: Technique | str,
    kernel: GuestKernel,
    process: Process,
    **kwargs: object,
) -> DirtyPageTracker:
    """Instantiate a tracker for ``technique`` over ``process``."""
    # Importing the implementations lazily avoids an import cycle and
    # ensures the registry is populated.
    from repro.core import techniques as _impls  # noqa: F401

    if isinstance(technique, str):
        technique = Technique(technique)
    cls = _REGISTRY.get(technique)
    if cls is None:
        raise TrackingError(f"no implementation for {technique}")
    return cls(kernel, process, **kwargs)
