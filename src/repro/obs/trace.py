"""The trace session the instrumented seams consult.

Zero overhead when disabled: hooked modules guard every seam with
``if tracing.ACTIVE is not None`` — a module-attribute load plus an
identity check — and build event fields only inside the guard, so the
observability subsystem costs nothing (and changes no simulated result
bit) unless a session is activated.  Tests and the runner activate one
with::

    with TraceSession().active() as session:
        ...                      # seams emit into session
    session.trace.to_jsonl()     # deterministic, diffable artifact
    session.metrics.snapshot()   # counters + histograms

:meth:`TraceSession.emit` is the one emit path: it records the event and
feeds its kind's :data:`~repro.obs.events.EVENT_METRICS` row, so counters
stay exact however much of the trace is kept.

Setting ``REPRO_TRACE=1`` in the environment activates a process-wide
default session at import time (bounded buffer), which is how the CI
matrix leg keeps every seam exercised by the full test suite.  Only one
session is active per process at a time; nesting restores the previous
one on exit — exactly the :mod:`repro.faults.injector` discipline.

Emission is pure observation: a session never touches the simulated
clock, page tables, or buffers, which
``tests/obs/test_disabled_overhead.py`` proves differentially.
"""

from __future__ import annotations

from pathlib import Path

from repro.config import env_flag
from repro.obs.events import EVENT_METRICS, EventKind, TraceEvent
from repro.obs.metrics import MetricsRegistry

__all__ = ["ACTIVE", "TraceBuffer", "TraceSession", "activate"]

#: Buffer cap for the env-activated default session: large enough to hold
#: any single test's stream, bounded so a full suite cannot exhaust RAM.
ENV_SESSION_CAPACITY = 1 << 16


class TraceBuffer:
    """Ordered store of :class:`TraceEvent`, optionally capacity-bounded.

    When full, *new* events are counted in ``n_dropped`` instead of
    stored — keeping the retained prefix stable (a golden trace's head
    never silently shifts) and the overflow visible, mirroring the
    drop-and-count contract of :class:`~repro.core.ringbuffer.RingBuffer`.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"trace capacity must be > 0: {capacity}")
        self.capacity = capacity
        self._events: list[TraceEvent] = []
        self.n_dropped = 0

    def append(self, event: TraceEvent) -> None:
        if self.capacity is not None and len(self._events) >= self.capacity:
            self.n_dropped += 1
            return
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> list[TraceEvent]:
        return list(self._events)

    def by_kind(self, kind: EventKind) -> list[TraceEvent]:
        return [e for e in self._events if e.kind is kind]

    def kind_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self._events:
            out[e.kind.value] = out.get(e.kind.value, 0) + 1
        return dict(sorted(out.items()))

    # ------------------------------------------------------------------
    # export / import
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One canonical JSON object per line, trailing newline included."""
        return "".join(e.to_json() + "\n" for e in self._events)

    def write_jsonl(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl())
        return path

    @staticmethod
    def read_jsonl(path: str | Path) -> "TraceBuffer":
        buf = TraceBuffer()
        for line in Path(path).read_text().splitlines():
            if line:
                buf.append(TraceEvent.from_json(line))
        return buf


class TraceSession:
    """One trace buffer plus one metrics registry, emitted into together.

    ``detail=False`` tells seams to leave out the per-page payloads (the
    WRITE/COLLECT VPN lists, the SNAPSHOT_DIFF/MERGE offset lists),
    keeping long ``--metrics`` runs cheap; no row reads them, so counters
    and histograms stay exact.  Tests use the default ``detail=True``;
    the ``REPRO_TRACE=1`` session uses ``detail=False``.
    """

    def __init__(
        self, capacity: int | None = None, detail: bool = True
    ) -> None:
        self.trace = TraceBuffer(capacity)
        self.metrics = MetricsRegistry()
        self.detail = detail
        self._next_seq = 0

    def emit(self, kind: EventKind, **fields: object) -> TraceEvent:
        """Record one event and feed its kind's metrics row; seq is global."""
        event = TraceEvent(seq=self._next_seq, kind=kind, fields=fields)
        self._next_seq += 1
        self.trace.append(event)
        for metric in EVENT_METRICS[kind]:
            metric.feed(self.metrics, fields)
        return event

    @property
    def n_emitted(self) -> int:
        return self._next_seq

    def active(self) -> "_Activation":
        return _Activation(self)


#: The process-wide active session; ``None`` means tracing is off and
#: every instrumented seam behaves exactly as a build without it.
ACTIVE: TraceSession | None = None


def activate(session: TraceSession | None) -> TraceSession | None:
    """Install ``session`` as the active one; returns the previous one."""
    global ACTIVE
    prev = ACTIVE
    ACTIVE = session
    return prev


class _Activation:
    """Context manager installing one session, restoring the previous."""

    def __init__(self, session: TraceSession) -> None:
        self.session = session
        self._prev: TraceSession | None = None

    def __enter__(self) -> TraceSession:
        self._prev = activate(self.session)
        return self.session

    def __exit__(self, *exc: object) -> None:
        activate(self._prev)


# REPRO_TRACE=1 arms a default session at interpreter start so the whole
# test suite exercises the seams (CI matrix leg); the buffer is bounded
# and per-test sessions shadow it via the activation stack.  It keeps no
# per-page payloads: a WRITE event's page list can hold 16,384 ints, so
# a buffer of detailed events is bounded in count but not in bytes.
if env_flag("REPRO_TRACE", False):  # pragma: no cover - exercised by the CI leg
    ACTIVE = TraceSession(capacity=ENV_SESSION_CAPACITY, detail=False)
