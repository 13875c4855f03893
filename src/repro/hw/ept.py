"""Extended Page Table: GPA -> HPA second-level translation.

One :class:`Ept` per VM, owned by the hypervisor.  PML hooks off the EPT
dirty bit: the CPU logs a GPA exactly when a write causes the EPT dirty
bit to transition 0 -> 1 (paper §II-B).  The hypervisor clears EPT dirty
bits when it harvests the PML log (as Xen/KVM do between live-migration
rounds), which re-arms logging for those pages.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, InvalidAddressError
from repro.hw.pageset import unique_pages

__all__ = ["EPT_PRESENT", "EPT_WRITABLE", "EPT_ACCESSED", "EPT_DIRTY", "Ept"]

EPT_PRESENT = np.uint16(1 << 0)
EPT_WRITABLE = np.uint16(1 << 1)
EPT_ACCESSED = np.uint16(1 << 2)
EPT_DIRTY = np.uint16(1 << 3)


class Ept:
    """Dense GPFN -> (HPFN, flags) table for one VM."""

    def __init__(self, n_guest_frames: int) -> None:
        if n_guest_frames <= 0:
            raise ConfigurationError(f"n_guest_frames must be > 0: {n_guest_frames}")
        self.n_guest_frames = n_guest_frames
        self.hpfn = np.full(n_guest_frames, -1, dtype=np.int64)
        self.flags = np.zeros(n_guest_frames, dtype=np.uint16)
        #: Mutation generation for the MMU walk cache: bumped by every
        #: mapping or flag mutation — map, A/D updates (:meth:`touch`) and
        #: the harvest re-arm (:meth:`clear_dirty`).  Clearing EPT dirty
        #: bits therefore always invalidates memoized batch replay, which
        #: is what guarantees a replayed batch can never swallow a 0->1
        #: dirty transition the PML circuit should have logged.
        self.generation = 0

    def _check(self, gpfns: np.ndarray | list[int]) -> np.ndarray:
        arr = np.asarray(gpfns, dtype=np.int64).ravel()
        # Negative GPFNs viewed as uint64 exceed the range: one reduction.
        if arr.size and arr.view(np.uint64).max() >= self.n_guest_frames:
            raise InvalidAddressError("GPFN out of guest physical range")
        return arr

    def map(
        self,
        gpfns: np.ndarray | list[int],
        hpfns: np.ndarray | list[int],
        writable: bool = True,
    ) -> None:
        g = self._check(gpfns)
        h = np.asarray(hpfns, dtype=np.int64).ravel()
        if g.size != h.size:
            raise ValueError("gpfns and hpfns length mismatch")
        self.hpfn[g] = h
        f = EPT_PRESENT
        if writable:
            f |= EPT_WRITABLE
        self.flags[g] = f
        self.generation += 1

    def translate(self, gpfns: np.ndarray | list[int]) -> np.ndarray:
        g = self._check(gpfns)
        h = self.hpfn[g]
        if np.any(h < 0):
            raise InvalidAddressError("EPT violation: unmapped GPFN")
        return h.copy()

    # ------------------------------------------------------------------
    # access/dirty bookkeeping (called by the MMU on each access batch)
    # ------------------------------------------------------------------
    def touch(
        self, gpfns: np.ndarray, write_mask: np.ndarray | bool
    ) -> np.ndarray:
        """Set A (all) / D (writes) bits; return GPFNs whose D bit went 0->1.

        ``write_mask`` is per-GPFN, or one bool for the whole batch.  The
        returned array is exactly what the PML circuit must log.
        """
        g = self._check(gpfns)
        if isinstance(write_mask, bool):
            written = g if write_mask else g[:0]
        else:
            w = np.asarray(write_mask, dtype=bool).ravel()
            if g.size != w.size:
                raise ValueError("gpfns and write_mask length mismatch")
            written = g[w]
        self.flags[g] |= EPT_ACCESSED
        self.generation += 1
        if written.size == 0:
            return np.empty(0, dtype=np.int64)
        was_clean = (self.flags[written] & EPT_DIRTY) == 0
        # A page may appear several times in one batch; log it once.
        newly_dirty = unique_pages(written[was_clean], self.n_guest_frames)
        self.flags[written] |= EPT_DIRTY
        return newly_dirty

    def unmap(self, gpfns: np.ndarray | list[int]) -> np.ndarray:
        """Remove GPA->HPA mappings (balloon inflate); returns the HPFNs
        that were mapped so the hypervisor can return them to the host
        pool.  Unmapped entries lose all flags — a later re-map starts
        with clean A/D bits, so the first post-deflate write is a fresh
        0->1 dirty transition and PML logs it again."""
        g = self._check(gpfns)
        h = self.hpfn[g]
        if np.any(h < 0):
            raise InvalidAddressError("EPT unmap of an unmapped GPFN")
        out = h.copy()
        self.hpfn[g] = -1
        self.flags[g] = 0
        self.generation += 1
        return out

    def clear_accessed(self, gpfns: np.ndarray | list[int] | None = None) -> int:
        """Clear A bits (WSS sample re-arm); returns how many were set.

        Like :meth:`clear_dirty`, this must bump :attr:`generation`: the
        walk cache replays memoized batches without re-setting accessed
        bits, so a sampler that cleared A bits behind the cache's back
        would under-count every page whose accesses replay from the cache.
        """
        self.generation += 1
        if gpfns is None:
            acc = (self.flags & EPT_ACCESSED) != 0
            n = int(acc.sum())
            self.flags &= ~EPT_ACCESSED
            return n
        g = self._check(gpfns)
        n = int(((self.flags[g] & EPT_ACCESSED) != 0).sum())
        self.flags[g] &= ~EPT_ACCESSED
        return n

    def clear_dirty(self, gpfns: np.ndarray | list[int] | None = None) -> int:
        """Clear D bits (harvest re-arm); returns how many were set."""
        self.generation += 1
        if gpfns is None:
            dirty = (self.flags & EPT_DIRTY) != 0
            n = int(dirty.sum())
            self.flags &= ~EPT_DIRTY
            return n
        g = self._check(gpfns)
        n = int(((self.flags[g] & EPT_DIRTY) != 0).sum())
        self.flags[g] &= ~EPT_DIRTY
        return n

    def dirty_gpfns(self) -> np.ndarray:
        return np.nonzero((self.flags & EPT_DIRTY) != 0)[0].astype(np.int64)

    def accessed_mask(self, gpfns: np.ndarray | list[int]) -> np.ndarray:
        """A-bit state per given GPFN (reclaim cold/hot classification)."""
        g = self._check(gpfns)
        return (self.flags[g] & EPT_ACCESSED) != 0
