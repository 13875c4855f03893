"""Simulated physical memory and frame allocation.

Page *contents* are modelled as 64-bit content tokens rather than 4 KiB of
bytes: a token changes on every write and is copied verbatim by
checkpoint/restore.  This preserves everything the paper's systems observe
(dirty-ness, content identity for dump/restore verification) while keeping
memory O(8 bytes/page), which lets the test suite run 1 GB-footprint
experiments.

Two instances exist per experiment: the *host* physical memory (frames are
HPFNs, owned by the hypervisor) and each VM's *guest* physical memory view
(frames are GPFNs, owned by the guest kernel).  Both use the same classes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import (
    ConfigurationError,
    InvalidAddressError,
    OutOfFramesError,
    TransientError,
)
from repro.faults import injector as finj
from repro.faults.plan import FaultSite

__all__ = ["FrameAllocator", "PhysicalMemory"]


class FrameAllocator:
    """Allocates frame numbers from a fixed pool, LIFO free list.

    The free list is a pre-sized numpy array used as a stack (``_top``
    entries are valid), not a Python list: a 5 GB VM has ~1.4M frames and
    experiment harnesses build fresh stacks constantly, so list-of-int
    construction used to dominate stack-build wall-clock.  Allocation
    order is bit-identical to the original list implementation.
    """

    def __init__(self, n_frames: int) -> None:
        if n_frames <= 0:
            raise ConfigurationError(f"n_frames must be > 0: {n_frames}")
        self.n_frames = n_frames
        # Free frames stored as a stack; allocate from the end.
        self._free = np.arange(n_frames - 1, -1, -1, dtype=np.int64)
        self._top = n_frames  # number of valid entries in _free
        self._allocated = np.zeros(n_frames, dtype=bool)

    @property
    def n_free(self) -> int:
        return self._top

    @property
    def n_allocated(self) -> int:
        return self.n_frames - self._top

    def alloc(self, count: int) -> np.ndarray:
        """Allocate ``count`` frames; raises :class:`OutOfFramesError`."""
        if count < 0:
            raise ValueError(f"count must be >= 0: {count}")
        if (
            count
            and finj.ACTIVE is not None
            and finj.ACTIVE.should_fire(FaultSite.FRAME_EXHAUSTION)
        ):
            raise TransientError(
                f"frame allocator transiently exhausted (injected): "
                f"{count} frames requested, reclaim in progress"
            )
        if count > self._top:
            raise OutOfFramesError(
                f"requested {count} frames, only {self._top} free"
            )
        frames = self._free[self._top - count:self._top].copy()
        self._top -= count
        self._allocated[frames] = True
        return frames

    def free(self, frames: np.ndarray | list[int]) -> None:
        arr = np.asarray(frames, dtype=np.int64).ravel()
        if arr.size == 0:
            return
        if np.any(arr < 0) or np.any(arr >= self.n_frames):
            raise InvalidAddressError("frame number out of range")
        if not np.all(self._allocated[arr]):
            raise InvalidAddressError("double free of physical frame")
        self._allocated[arr] = False
        self._free[self._top:self._top + arr.size] = arr
        self._top += arr.size

    def is_allocated(self, frame: int) -> bool:
        return bool(self._allocated[frame])


class PhysicalMemory:
    """Frame pool plus per-frame content tokens.

    A content token is a uint64 that changes on every write; reads return
    the current token.  Token 0 means "never written" (zero page).
    """

    def __init__(self, n_frames: int) -> None:
        self.allocator = FrameAllocator(n_frames)
        self._content = np.zeros(n_frames, dtype=np.uint64)
        self._write_seq = np.uint64(0)

    @property
    def n_frames(self) -> int:
        return self.allocator.n_frames

    def alloc(self, count: int) -> np.ndarray:
        frames = self.allocator.alloc(count)
        self._content[frames] = 0  # fresh frames are zeroed
        return frames

    def free(self, frames: np.ndarray | list[int]) -> None:
        self.allocator.free(frames)

    # ------------------------------------------------------------------
    def write(self, frames: np.ndarray | list[int]) -> None:
        """Mutate frame contents (each write yields a fresh token)."""
        arr = np.asarray(frames, dtype=np.int64).ravel()
        if arr.size == 0:
            return
        self._check(arr)
        # Tokens seq+1 .. seq+n in one arange; Python ints keep the dtype.
        start = int(self._write_seq) + 1
        self._content[arr] = np.arange(start, start + arr.size, dtype=np.uint64)
        self._write_seq += np.uint64(arr.size)

    def store_trusted(self, frames: np.ndarray, tokens: np.ndarray) -> None:
        """:meth:`store` minus conversion and bounds checks.

        Hot-path variant for serverless snapshot restore: ``frames`` comes
        straight from a page-table translate of mapped VPNs (already
        validated) and ``tokens`` from a snapshot array of matching size,
        so the per-restore min/max scan would be pure overhead across
        thousands of short-lived instances.
        """
        self._content[frames] = tokens

    def read(self, frames: np.ndarray | list[int]) -> np.ndarray:
        """Return content tokens of the given frames."""
        arr = np.asarray(frames, dtype=np.int64).ravel()
        self._check(arr)
        return self._content[arr].copy()

    def store(self, frames: np.ndarray | list[int], tokens: np.ndarray) -> None:
        """Overwrite frame contents with explicit tokens (restore path)."""
        arr = np.asarray(frames, dtype=np.int64).ravel()
        tok = np.asarray(tokens, dtype=np.uint64).ravel()
        if arr.size != tok.size:
            raise ValueError("frames and tokens length mismatch")
        self._check(arr)
        self._content[arr] = tok

    def _check(self, arr: np.ndarray) -> None:
        # One reduction checks both ends: a negative frame viewed as
        # uint64 exceeds any frame count.
        if arr.size and arr.view(np.uint64).max() >= self.n_frames:
            raise InvalidAddressError("physical frame out of range")
