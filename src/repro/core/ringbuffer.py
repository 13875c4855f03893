"""Shared ring buffer for logged page addresses.

In SPML the hypervisor copies PML-buffer contents into a ring buffer shared
with the guest OS; in EPML the OoH module copies the guest-level PML buffer
into a per-process ring buffer shared with the tracker (paper §IV-B).  Both
are the same structure: a fixed-capacity single-producer / single-consumer
queue of 64-bit page addresses.

The buffer stores page-frame numbers (not byte addresses) as ``uint64``.
On overflow it *drops the oldest* entries and counts them, mirroring how a
real shared ring would lose data if the consumer lags; trackers surface the
drop count so experiments can verify no loss occurred (evaluation question
3 in §VI: "to what extent [are they] able to efficiently capture all dirty
pages?").

``capacity`` is the simulated ring size, and it alone decides overflow and
drops.  Host storage follows occupancy: it starts empty and grows
geometrically, never past ``capacity``, as entries arrive.  An attach of a
default ring (2^20 entries) therefore zero-fills no 8 MiB when the tracker
logs only a handful of pages.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.faults import injector as finj
from repro.faults.plan import FaultSite
from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = ["DEFAULT_RING_CAPACITY", "RingBuffer"]

#: Default SPML/EPML ring capacity (entries).
DEFAULT_RING_CAPACITY = 1 << 20


class RingBuffer:
    """Fixed-capacity FIFO of uint64 page-frame numbers."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"ring buffer capacity must be > 0: {capacity}")
        self._buf = np.empty(0, dtype=np.uint64)  # grown on demand
        self._capacity = capacity
        self._head = 0  # next read position
        self._size = 0
        self.total_pushed = 0
        self.total_dropped = 0
        #: SMP diagnostics: entries pushed per source (e.g. vCPU id).
        #: Only populated when producers pass ``source=`` to :meth:`push`;
        #: the differential tests use it to assert deterministic merge
        #: order across per-vCPU logs.
        self.pushed_by_source: dict = {}

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return self._size

    @property
    def free(self) -> int:
        return self._capacity - self._size

    # ------------------------------------------------------------------
    def push(self, pfns: np.ndarray | list[int], source=None) -> int:
        """Append page-frame numbers; drop oldest entries on overflow.

        ``source`` optionally tags the producer (e.g. the vCPU id whose
        PML buffer these entries came from) for per-source accounting.
        Returns the number of entries dropped to make room.
        """
        arr = np.asarray(pfns, dtype=np.uint64).ravel()
        n = len(arr)
        self.total_pushed += n
        if source is not None:
            self.pushed_by_source[source] = self.pushed_by_source.get(source, 0) + n
        if n == 0:
            return 0
        if n >= self._capacity:
            # Only the newest `capacity` entries survive.
            dropped = self._size + (n - self._capacity)
            self._buf = arr[-self._capacity:].copy()
            self._head = 0
            self._size = self._capacity
            self.total_dropped += dropped
            self._trace_drop(dropped, "organic")
            return dropped + self._injected_overflow()
        dropped = max(0, n - self.free)
        if dropped:
            self._head = (self._head + dropped) % len(self._buf)
            self._size -= dropped
            self.total_dropped += dropped
            self._trace_drop(dropped, "organic")
        if self._size + n > len(self._buf):
            self._grow(self._size + n)
        tail = (self._head + self._size) % len(self._buf)
        first = min(n, len(self._buf) - tail)
        self._buf[tail:tail + first] = arr[:first]
        if first < n:
            self._buf[:n - first] = arr[first:]
        self._size += n
        return dropped + self._injected_overflow()

    def _grow(self, need: int) -> None:
        """Double storage (or more, to ``need``), never past capacity,
        moving the live window to the front."""
        buf = np.empty(
            min(self._capacity, max(2 * len(self._buf), need)), dtype=np.uint64
        )
        buf[:self._size] = self.peek_all()
        self._buf = buf
        self._head = 0

    def _injected_overflow(self) -> int:
        """Fault injection: a lagging consumer loses the oldest entries.

        Surfaced through the same ``total_dropped`` counter as organic
        overflow, so every existing drop-accounting path sees it.
        """
        if finj.ACTIVE is None:
            return 0
        k = finj.ACTIVE.drop_count(FaultSite.RING_OVERFLOW, self._size)
        if k:
            self._head = (self._head + k) % len(self._buf)
            self._size -= k
            self.total_dropped += k
            self._trace_drop(k, "injected")
        return k

    @staticmethod
    def _trace_drop(n: int, cause: str) -> None:
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(EventKind.RING_DROP, n=int(n), cause=cause)

    def pop_all(self) -> np.ndarray:
        """Drain the buffer, returning entries in FIFO order."""
        out = self.peek_all()
        self.clear()
        return out

    def peek_all(self) -> np.ndarray:
        """Return entries in FIFO order without consuming them."""
        if self._size == 0:
            return np.empty(0, dtype=np.uint64)
        end = self._head + self._size
        if end <= len(self._buf):
            return self._buf[self._head:end].copy()
        return np.concatenate(
            [self._buf[self._head:], self._buf[:end - len(self._buf)]]
        )

    def clear(self) -> None:
        self._head = 0
        self._size = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RingBuffer(capacity={self._capacity}, size={self._size}, "
            f"pushed={self.total_pushed}, dropped={self.total_dropped})"
        )
