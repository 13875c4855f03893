"""Bounded-domain page sets: dedup and per-page counts without hashing.

Every batch of page numbers the simulator reduces to a set lies in a
known domain ``[0, n)``: VPNs below the address-space size, GPFNs below
the guest frame count, object ids below the id high-water mark.  numpy's
``np.unique`` cannot use that bound, and numpy 2.4's hashes
(``_unique_hash``): on a quarter-million page numbers that costs ~50 ms
against well under 1 ms for a bitmap plus ``flatnonzero``.

Each primitive picks one of two exact methods from the batch size alone:

* a **bitmap** over ``[0, n)`` when the batch is large relative to the
  domain (at least ``n / 8`` values) — one scatter, one scan;
* otherwise a **sort**, then drop repeats — ``O(k log k)``, so a handful
  of pages in a large address space never pays for an ``n``-entry bitmap.

``has_repeats`` first compares neighbours, since a strictly monotonic
batch repeats nothing, and only dedups a batch that is not.

Both methods give exactly ``np.unique``'s answer (sorted distinct values, as
int64, never a view of the input), so the choice changes host time only.
The domain is always passed: a domain-free fallback would have to sort
large batches too, which costs time and a full copy of the batch.
Values outside ``[0, n)`` are a caller bug that no path reports reliably
(the bitmap raises ``IndexError`` at ``n`` and above but wraps negative
values; the sort passes them through), so callers range-check first.
"""

from __future__ import annotations

import numpy as np

__all__ = ["count_pages", "has_repeats", "page_bitmap", "pages_in", "unique_pages"]

#: A batch of at least ``n // _BITMAP_RATIO`` values takes the bitmap
#: path.  Measured crossover of bitmap vs sort (numpy 2.4): ~n/16 to n/8.
_BITMAP_RATIO = 8


def _bitmap_path(k: int, n: int) -> bool:
    return k * _BITMAP_RATIO >= n


def _run_starts(s: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in non-decreasing ``s``."""
    head = np.empty(s.size, dtype=bool)
    head[:1] = True
    np.not_equal(s[1:], s[:-1], out=head[1:])
    return np.flatnonzero(head)


def page_bitmap(x: np.ndarray, n: int) -> np.ndarray:
    """Bool array over ``[0, n)``, True exactly at the values of ``x``."""
    mark = np.zeros(n, dtype=bool)
    mark[x] = True
    return mark


def unique_pages(x: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct values of ``x`` (all in ``[0, n)``) as int64.

    Equal to ``np.unique(x).astype(np.int64)``.
    """
    x = np.asarray(x).ravel()
    if _bitmap_path(x.size, n):
        return np.flatnonzero(page_bitmap(x, n))
    s = np.sort(x)
    return s[_run_starts(s)].astype(np.int64, copy=False)


def has_repeats(x: np.ndarray, n: int) -> bool:
    """Whether a value occurs more than once in ``x`` (all in ``[0, n)``).

    Equal to ``np.unique(x).size != x.size``.  A strictly monotonic batch
    (ids or frames coming back in the order they were handed out or
    swept) is settled by comparing neighbours; any other is deduped.
    """
    x = np.asarray(x).ravel()
    if x.size < 2:
        return False
    head, tail = x[:-1], x[1:]
    if (head < tail).all() or (head > tail).all():
        return False
    return unique_pages(x, n).size != x.size


def count_pages(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(pages, counts)``: sorted distinct values of ``x`` and how often
    each occurs, both int64.

    Equal to ``np.unique(x, return_counts=True)``; ``a[pages] += counts``
    is ``np.add.at(a, x, 1)`` without the unbuffered scatter.
    """
    x = np.asarray(x).ravel()
    if _bitmap_path(x.size, n):
        counts = np.bincount(x.astype(np.intp, copy=False), minlength=n)
        pages = np.flatnonzero(counts)
        return pages, counts[pages]
    s = np.sort(x)
    starts = _run_starts(s)
    return s[starts].astype(np.int64, copy=False), np.diff(starts, append=s.size)


def pages_in(pages: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Bool per entry of ``pages`` (sorted distinct, in ``[0, n)``): True
    where it occurs in ``x``.  Every value of ``x`` must be in ``pages``.

    Equal to ``np.isin(pages, x)`` under that precondition.
    """
    x = np.asarray(x).ravel()
    if _bitmap_path(x.size, n):
        return page_bitmap(x, n)[pages]
    out = np.zeros(pages.size, dtype=bool)
    out[np.searchsorted(pages, x)] = True
    return out
