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
from repro.hw.pageset import has_repeats

__all__ = ["FrameAllocator", "PhysicalMemory"]


class FrameAllocator:
    """Allocates frame numbers from a fixed pool, LIFO free list.

    Conceptually the free list is the stack ``[n-1, ..., 1, 0]`` (frame 0
    on top) with freed frames pushed on top.  Frames never handed out
    stay below every freed one, so only their boundary is stored: a
    bump pointer ``_next`` (frames ``_next ..`` are untouched) plus an
    explicit stack ``_returned`` holding just the freed frames.  A 5 GB
    VM has ~1.3M frames and experiments build fresh stacks constantly, so
    the free list costs memory only for frames that come back.  ``alloc``
    pops the same frame sequence, bit for bit, as the materialised stack.
    """

    def __init__(self, n_frames: int) -> None:
        if n_frames <= 0:
            raise ConfigurationError(f"n_frames must be > 0: {n_frames}")
        self.n_frames = n_frames
        self._next = 0  # frames [_next, n_frames) were never allocated
        # Freed frames as a stack (``_top`` valid entries); grows on need.
        self._returned = np.empty(0, dtype=np.int64)
        self._top = 0
        self._allocated = np.zeros(n_frames, dtype=bool)

    @property
    def n_free(self) -> int:
        return self.n_frames - self._next + self._top

    @property
    def n_allocated(self) -> int:
        return self._next - self._top

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
        n_free = self.n_free
        if count > n_free:
            raise OutOfFramesError(
                f"requested {count} frames, only {n_free} free"
            )
        top = self._top
        if count <= top:
            frames = self._returned[top - count:top].copy()
            self._top = top - count
            self._allocated[frames] = True
            return frames
        # Below every freed frame, the next k untouched ones in stack
        # order (descending), then the freed frames.
        k = count - top
        lo = self._next
        frames = np.arange(lo + k - 1, lo - 1, -1, dtype=np.int64)
        self._allocated[lo:lo + k] = True
        if top:
            self._allocated[self._returned[:top]] = True
            frames = np.concatenate((frames, self._returned[:top]))
        self._next = lo + k
        self._top = 0
        return frames

    def free(self, frames: np.ndarray | list[int]) -> None:
        arr = np.asarray(frames, dtype=np.int64).ravel()
        if arr.size == 0:
            return
        if np.any(arr < 0) or np.any(arr >= self.n_frames):
            raise InvalidAddressError("frame number out of range")
        # A frame repeated within the call is a double free too.
        if not np.all(self._allocated[arr]) or has_repeats(arr, self.n_frames):
            raise InvalidAddressError("double free of physical frame")
        self._allocated[arr] = False
        top = self._top
        if top + arr.size > self._returned.size:
            grown = np.empty(
                max(top + arr.size, 2 * self._returned.size), dtype=np.int64
            )
            grown[:top] = self._returned[:top]
            self._returned = grown
        self._returned[top:top + arr.size] = arr
        self._top = top + arr.size

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
