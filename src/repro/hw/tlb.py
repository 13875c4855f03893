"""TLB model.

The simulator is functional, not cycle-accurate, so the TLB's role is
bookkeeping: soft-dirty tracking is only correct if ``clear_refs`` flushes
cached translations (otherwise writes through stale writable entries would
escape tracking — the real-Linux bug class the flush exists to prevent).
We model a per-address-space set of cached VPNs so tests can assert the
flush discipline, and we count flushes so the cost model can charge them.

The MMU's TLB fast path (:meth:`repro.hw.mmu.Mmu.access`) consults
:meth:`cached_all` before skipping the page walk, so every code path that
downgrades a cached translation (``clear_refs`` write-protection, ufd
write-protect arming, EPML/oracle dirty-bit re-arming, heap unmaps,
process exit) must call :meth:`invalidate` or :meth:`flush` — the same
discipline real kernels follow with ``invlpg``/TLB shootdowns.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = ["Tlb"]

#: Process-wide unique TLB ids for the MMU walk cache (never reused).
_uid_counter = itertools.count(1)


class Tlb:
    """Cached-translation bitmap for one address space on one vCPU.

    SMP: each vCPU has its own TLB, so an address space holds one ``Tlb``
    per vCPU of the VM; ``vcpu_id`` tags trace events and lets the guest
    kernel target cross-vCPU shootdowns at the right structure.
    """

    def __init__(self, n_pages: int, vcpu_id: int = 0) -> None:
        self._cached = np.zeros(n_pages, dtype=bool)
        self.vcpu_id = vcpu_id
        self.n_flushes = 0
        self.n_fills = 0
        self.n_invalidations = 0
        #: Walk-cache identity (see repro.hw.mmu): never-reused TLB id.
        self.uid = next(_uid_counter)
        #: Downgrade generation: bumped by invalidate/flush (the only
        #: operations that can *remove* cached translations).  Fills only
        #: add entries, so they leave it untouched — a memoized fast-path
        #: batch whose pages were all cached stays cached until the next
        #: invalidation, which is exactly what the MMU walk cache checks.
        self.generation = 0

    def fill(self, vpns: np.ndarray) -> None:
        v = np.asarray(vpns, dtype=np.int64).ravel()
        self._cached[v] = True
        self.n_fills += int(v.size)

    def cached_mask(self, vpns: np.ndarray) -> np.ndarray:
        v = np.asarray(vpns, dtype=np.int64).ravel()
        return self._cached[v].copy()

    def cached_all(self, vpns: np.ndarray) -> bool:
        """True when every VPN has a cached translation.

        Hot-path helper for the MMU's TLB fast path: no defensive copy,
        no bounds check (the MMU validates the batch first).
        """
        return bool(self._cached[vpns].all())

    def cached_any(self, vpns: np.ndarray) -> bool:
        """True when at least one VPN has a cached translation (shootdown
        filter: a remote vCPU caching nothing needs no IPI)."""
        v = np.asarray(vpns, dtype=np.int64).ravel()
        return bool(self._cached[v].any())

    def note_refill(self, n: int) -> None:
        """Account a fill of ``n`` already-cached VPNs without the scatter.

        Replay-path helper: when the walk cache has proven (via
        :attr:`generation`) that no invalidation happened since the batch
        was memoized, every VPN is still cached, so the fill's bitmap
        write is a no-op — only the fill counter advances, bit-identically
        to :meth:`fill`.
        """
        self.n_fills += int(n)

    def invalidate(self, vpns: np.ndarray) -> None:
        v = np.asarray(vpns, dtype=np.int64).ravel()
        self._cached[v] = False
        self.n_invalidations += int(v.size)
        self.generation += 1

    def flush(self) -> None:
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.TLB_FLUSH,
                n_cached=int(self._cached.sum()),
                vcpu_id=self.vcpu_id,
            )
        self._cached[:] = False
        self.n_flushes += 1
        self.generation += 1

    @property
    def n_cached(self) -> int:
        return int(self._cached.sum())
