"""Trace/metrics observability: a zero-overhead-when-disabled instrument.

The subsystem has three parts, modeled on :mod:`repro.faults`:

* :mod:`repro.obs.events` — the typed event taxonomy (vmexit, pml_full,
  self_ipi, hypercall, retry, ... 28 kinds) and ``EVENT_METRICS``, the
  one table saying which counters and histograms each kind feeds;
* :mod:`repro.obs.trace` — the session registry the instrumented seams
  consult (``trace.ACTIVE is None`` when disabled, so the hooks are
  free), the single emit path that records an event and applies its
  row, and deterministic JSONL export;
* :mod:`repro.obs.metrics` — counters and histograms aggregated
  alongside the trace (vmexit counts by reason, PML occupancy at flush,
  retry attempts), surfaced by ``experiments/runner.py --metrics``.

Because the simulator is deterministic, a run's trace is a correctness
oracle: the golden-trace tests replay canonical runs byte-identically
and the property tests assert sequence invariants over randomized ones
(DESIGN.md §8).
"""

from repro.obs.events import EventKind, TraceEvent
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import TraceBuffer, TraceSession, activate

__all__ = [
    "EventKind",
    "Histogram",
    "MetricsRegistry",
    "TraceBuffer",
    "TraceEvent",
    "TraceSession",
    "activate",
]
