"""Guest page tables: GVA -> GPA mapping with x86-style PTE flag bits.

One :class:`PageTable` per process address space.  Virtual page numbers
(VPNs) index dense numpy arrays, which makes batch page walks vectorised
(DESIGN.md: the simulator processes page-access *batches*).

Flag semantics follow Linux:

* ``PRESENT``/``WRITABLE`` gate access; a write to a non-writable present
  page faults.
* ``DIRTY``/``ACCESSED`` are set by the MMU on access.
* ``SOFT_DIRTY`` is Linux's bit-55 tracking bit: ``clear_refs`` clears it
  *and write-protects the PTE*; the subsequent write fault re-sets it
  (paper §III-B).
* ``UFD_WP`` marks userfaultfd write-protected pages; a write delivers a
  fault to the registered userfaultfd instead of the kernel path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, InvalidAddressError

__all__ = [
    "PTE_PRESENT",
    "PTE_WRITABLE",
    "PTE_ACCESSED",
    "PTE_DIRTY",
    "PTE_SOFT_DIRTY",
    "PTE_UFD_WP",
    "PTE_ZERO",
    "PageTable",
]

PTE_PRESENT = np.uint16(1 << 0)
PTE_WRITABLE = np.uint16(1 << 1)
PTE_ACCESSED = np.uint16(1 << 2)
PTE_DIRTY = np.uint16(1 << 3)
PTE_SOFT_DIRTY = np.uint16(1 << 4)
PTE_UFD_WP = np.uint16(1 << 5)
#: Read-faulted anonymous page (zero-page mapping): read-only, clean; the
#: first write takes a COW-style fault that makes it writable + soft-dirty.
PTE_ZERO = np.uint16(1 << 6)


class PageTable:
    """Dense VPN -> (GPFN, flags) table for one address space."""

    def __init__(self, n_pages: int) -> None:
        if n_pages <= 0:
            raise ConfigurationError(f"n_pages must be > 0: {n_pages}")
        self.n_pages = n_pages
        self.gpfn = np.full(n_pages, -1, dtype=np.int64)
        self.flags = np.zeros(n_pages, dtype=np.uint16)
        # Lazily built GPFN->VPN index for reverse_lookup; invalidated by
        # any operation that changes which VPNs are mapped (map/unmap, or
        # flag updates touching PRESENT).  Host-side speedup only: the
        # *simulated* reverse-mapping cost (M17) is charged by the caller
        # and is unaffected.
        self._rev_index: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    def _check_vpns(self, vpns: np.ndarray) -> np.ndarray:
        arr = np.asarray(vpns, dtype=np.int64).ravel()
        # One reduction checks both ends: a negative VPN viewed as uint64
        # exceeds any address-space size.
        if arr.size and arr.view(np.uint64).max() >= self.n_pages:
            raise InvalidAddressError("VPN out of address space")
        return arr

    def map(
        self,
        vpns: np.ndarray | list[int],
        gpfns: np.ndarray | list[int],
        writable: bool = True,
        soft_dirty: bool = True,
    ) -> None:
        """Install present mappings.

        New anonymous mappings are born soft-dirty (Linux semantics: a
        fresh page counts as modified until the next ``clear_refs``).
        """
        v = self._check_vpns(vpns)
        g = np.asarray(gpfns, dtype=np.int64).ravel()
        if v.size != g.size:
            raise ValueError("vpns and gpfns length mismatch")
        self.gpfn[v] = g
        f = PTE_PRESENT
        if writable:
            f |= PTE_WRITABLE
        if soft_dirty:
            f |= PTE_SOFT_DIRTY
        self.flags[v] = f
        self._rev_index = None

    def unmap(self, vpns: np.ndarray | list[int]) -> np.ndarray:
        """Remove mappings; returns the GPFNs that were mapped."""
        v = self._check_vpns(vpns)
        gpfns = self.gpfn[v].copy()
        self.gpfn[v] = -1
        self.flags[v] = 0
        self._rev_index = None
        return gpfns[gpfns >= 0]

    # ------------------------------------------------------------------
    def present_mask(self, vpns: np.ndarray | list[int]) -> np.ndarray:
        v = self._check_vpns(vpns)
        return (self.flags[v] & PTE_PRESENT) != 0

    def flag_mask(self, vpns: np.ndarray | list[int], flag: np.uint16) -> np.ndarray:
        v = self._check_vpns(vpns)
        return (self.flags[v] & flag) != 0

    def set_flags(self, vpns: np.ndarray | list[int], flag: np.uint16) -> None:
        v = self._check_vpns(vpns)
        self.flags[v] |= flag
        if flag & PTE_PRESENT:
            self._rev_index = None

    def clear_flags(self, vpns: np.ndarray | list[int], flag: np.uint16) -> None:
        v = self._check_vpns(vpns)
        self.flags[v] &= ~flag
        if flag & PTE_PRESENT:
            self._rev_index = None

    # ------------------------------------------------------------------
    def mapped_vpns(self) -> np.ndarray:
        """All VPNs with a present mapping."""
        return np.nonzero((self.flags & PTE_PRESENT) != 0)[0].astype(np.int64)

    def vpns_with_flag(self, flag: np.uint16) -> np.ndarray:
        return np.nonzero((self.flags & flag) != 0)[0].astype(np.int64)

    def translate(self, vpns: np.ndarray | list[int]) -> np.ndarray:
        """GPFNs for present VPNs; raises on unmapped entries."""
        v = self._check_vpns(vpns)
        g = self.gpfn[v]
        if np.any(g < 0):
            raise InvalidAddressError("translate of unmapped VPN")
        return g.copy()

    def _reverse_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted GPFNs, matching VPNs) for all present mappings.

        Built lazily on first use and invalidated by map/unmap, so a burst
        of reverse lookups against a stable table costs one O(M log M)
        sort and then O(K log M) per lookup instead of O(M log M) each.
        """
        if self._rev_index is None:
            mapped = self.mapped_vpns()
            table_g = self.gpfn[mapped]
            order = np.argsort(table_g, kind="stable")
            self._rev_index = (table_g[order], mapped[order])
        return self._rev_index

    def reverse_lookup(self, gpfns: np.ndarray | list[int]) -> np.ndarray:
        """GPFN -> VPN reverse mapping (what SPML's OoH Lib must do).

        Performed by scanning the table, exactly as the paper's userspace
        reverse mapping parses ``/proc/PID/pagemap``; the time cost (M17)
        is charged by the caller — the cached index below only cuts the
        *simulator's* wall-clock, never the simulated cost.  Unknown GPFNs
        map to -1.
        """
        g = np.asarray(gpfns, dtype=np.int64).ravel()
        sorted_g, sorted_v = self._reverse_index()
        idx = np.searchsorted(sorted_g, g)
        idx_clipped = np.minimum(idx, len(sorted_g) - 1) if len(sorted_g) else idx
        out = np.full(g.shape, -1, dtype=np.int64)
        if len(sorted_g):
            hit = sorted_g[idx_clipped] == g
            out[hit] = sorted_v[idx_clipped[hit]]
        return out
