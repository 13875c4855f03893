"""Dirty-page-driven marking (the paper's patched Boehm *mark phase*).

Boehm's incremental/generational mode avoids re-scanning the whole heap at
every cycle: objects that survived a full collection are *old* and assumed
stable; a minor cycle only re-scans (1) the roots and (2) old objects on
pages reported dirty by the tracking technique — the write-barrier
invariant being that any reference from an old object to a young one must
have dirtied the old object's page.  Everything young and unreached is
garbage.

These are pure graph routines over :class:`~repro.trackers.boehm.heap.GcHeap`;
cost charging stays in :mod:`repro.trackers.boehm.gc`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.pageset import unique_pages
from repro.trackers.boehm.heap import GEN_OLD, GEN_YOUNG, GcHeap

__all__ = ["MarkResult", "full_mark", "minor_mark"]


@dataclass
class MarkResult:
    """Outcome of one mark pass."""

    marked: np.ndarray  # bool over ids (ids < heap._n_ids)
    n_visited: int  # objects whose fields were scanned
    scanned_pages: np.ndarray  # unique heap pages read during the scan


def full_mark(heap: GcHeap) -> MarkResult:
    """Stop-the-world mark: BFS over every live reachable object."""
    n = heap._n_ids
    return _mark(heap, np.flatnonzero(heap.is_root[:n] & heap.alive[:n]), False)


def minor_mark(heap: GcHeap, dirty_vpns: np.ndarray) -> MarkResult:
    """Generational mark: roots + old objects on dirty pages.

    Marks every *young* object reachable from the scan set; old objects
    are stable by the write-barrier invariant and are never traversed
    unless their page is dirty.
    """
    n = heap._n_ids
    roots = np.flatnonzero(heap.is_root[:n] & heap.alive[:n])
    on_dirty = heap.objects_on_pages(np.asarray(dirty_vpns, dtype=np.int64))
    old_dirty = on_dirty[heap.gen[on_dirty] == GEN_OLD]
    return _mark(heap, unique_pages(np.concatenate([roots, old_dirty]), n), True)


def _mark(heap: GcHeap, scan_set: np.ndarray, young_only: bool) -> MarkResult:
    """BFS from ``scan_set`` (distinct live ids, ascending) over live
    objects, young ones only if ``young_only``; the scan set itself is
    marked (only its young members if ``young_only``) and scanned."""
    n = heap._n_ids
    marked = np.zeros(n, dtype=bool)
    if young_only:
        marked[scan_set[heap.gen[scan_set] == GEN_YOUNG]] = True
    else:
        marked[scan_set] = True
    frontier = scan_set
    visited = [scan_set]
    while frontier.size:
        nbrs = heap.out_neighbors(frontier)
        keep = heap.alive[nbrs] & ~marked[nbrs]
        if young_only:
            keep &= heap.gen[nbrs] == GEN_YOUNG
        nbrs = unique_pages(nbrs[keep], n)
        marked[nbrs] = True
        visited.append(nbrs)
        frontier = nbrs
    all_visited = np.concatenate(visited)
    return MarkResult(
        marked=marked,
        n_visited=int(all_visited.size),
        scanned_pages=heap.pages_of(all_visited),
    )
