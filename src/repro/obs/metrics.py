"""Counters and histograms aggregated alongside the trace.

The registry answers the questions the raw event stream makes expensive
(vmexit counts by reason, PML occupancy at flush, retry attempts) in O(1)
space regardless of run length.  Snapshots are deterministic: plain dicts
with sorted keys and integer/float values derived only from simulated
state, so ``--metrics`` output is as diffable as the trace itself.

Counter/histogram names are dot-paths (``vmexit.pml_full``,
``pml.occupancy_at_flush``).  They are declared once, per event kind, in
:data:`repro.obs.events.EVENT_METRICS`; only the few counts no event
carries are named at their seam (DESIGN.md §8).
"""

from __future__ import annotations

import bisect

__all__ = ["Histogram", "MetricsRegistry", "DEFAULT_BOUNDS"]

#: Power-of-two bucket upper bounds, sized for PML/ring occupancies
#: (a 512-entry buffer lands in the first ten buckets).
DEFAULT_BOUNDS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
)


class Histogram:
    """Fixed-bound histogram: counts per bucket plus sum and count."""

    __slots__ = ("bounds", "bucket_counts", "count", "total")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self.bounds = tuple(bounds)
        # One count per bound, plus the +inf overflow bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "buckets": {
                ("+inf" if i == len(self.bounds) else str(self.bounds[i])): n
                for i, n in enumerate(self.bucket_counts)
                if n
            },
        }


class MetricsRegistry:
    """Name -> counter/histogram store shared by every seam in a session."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe(value)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def counters_with_prefix(self, prefix: str) -> dict[str, int]:
        return {
            name: v
            for name, v in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    def snapshot(self) -> dict:
        """Deterministic copy: sorted names, plain values."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }

    def render(self, title: str = "Metrics") -> str:
        """Human-readable summary table for ``--metrics`` output."""
        lines = [title, "-" * len(title)]
        for name, v in sorted(self._counters.items()):
            lines.append(f"  {name:<40} {v}")
        for name, h in sorted(self._histograms.items()):
            lines.append(
                f"  {name:<40} n={h.count} mean={h.mean:.1f} sum={h.total:.0f}"
            )
        if len(lines) == 2:
            lines.append("  (empty)")
        return "\n".join(lines)
