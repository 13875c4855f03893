"""GC heap: object allocation on the simulated address space.

A Boehm-style conservative collector manages a heap VMA inside the tracked
process.  Objects live in an id-indexed numpy store (page, size,
liveness, generation, root bit); references are a few runs of edges, each
sorted by source, compacted at full collections.  Allocation bump-packs
objects into pages per size class and *writes* those pages through the
guest kernel — which is what the dirty-page-tracking techniques observe.

Ids are reused through a free list so long allocation-heavy runs
(GCBench's tree torture) stay bounded by the live set, not the allocation
count.
"""

from __future__ import annotations

import numpy as np

from repro.core.calibration import PAGE_SIZE
from repro.errors import GcError
from repro.guest.kernel import GuestKernel
from repro.guest.process import Process, Vma
from repro.hw.pageset import count_pages, has_repeats, page_bitmap, unique_pages

__all__ = ["GcHeap"]

GEN_YOUNG = 0
GEN_OLD = 1

#: The empty id column every edge gather starts from (so no hit reads as
#: an empty int64 array).
_NO_IDS = np.empty(0, dtype=np.int64)


class GcHeap:
    """Object heap on one process."""

    def __init__(
        self,
        kernel: GuestKernel,
        process: Process,
        heap_pages: int,
    ) -> None:
        if heap_pages <= 0:
            raise GcError(f"heap_pages must be > 0: {heap_pages}")
        self.kernel = kernel
        self.process = process
        self.vma: Vma = process.space.add_vma(heap_pages, "gc-heap")

        cap = 1024
        self.obj_page = np.full(cap, -1, dtype=np.int64)  # absolute VPN
        self.obj_size = np.zeros(cap, dtype=np.int32)
        self.obj_span = np.zeros(cap, dtype=np.int32)  # pages per object
        self.alive = np.zeros(cap, dtype=bool)
        self.gen = np.zeros(cap, dtype=np.uint8)
        self.is_root = np.zeros(cap, dtype=bool)
        self._n_ids = 0
        self._free_ids: list[np.ndarray] = []

        # Edges: (src, dst) runs, oldest and largest first, each stably
        # sorted by source, so a source's edges keep their append order.
        self._runs: list[tuple[np.ndarray, np.ndarray]] = []
        self.n_edges = 0

        # Per-size-class bump state: size -> (vpn, slots_used).
        self._bump: dict[int, tuple[int, int]] = {}
        self._next_heap_vpn = self.vma.start_vpn
        self._free_pages: list[int] = []
        #: VPN domain of every page-set operation (the process space).
        self._space_pages = process.space.n_pages
        self.page_live = np.zeros(self._space_pages, dtype=np.int32)

        self.allocated_bytes_since_gc = 0
        self.total_allocated_objects = 0

    # ------------------------------------------------------------------
    # id management
    # ------------------------------------------------------------------
    def _grow(self, need: int) -> None:
        cap = len(self.obj_page)
        if self._n_ids + need <= cap:
            return
        new_cap = max(cap * 2, self._n_ids + need)
        for name in ("obj_page", "obj_size", "obj_span", "alive", "gen", "is_root"):
            old = getattr(self, name)
            new = np.zeros(new_cap, dtype=old.dtype)
            if name == "obj_page":
                new[:] = -1
            new[: len(old)] = old
            setattr(self, name, new)

    def _ids(self, ids: np.ndarray | list[int]) -> np.ndarray:
        """``ids`` as a flat int64 array, each checked to be in ``[0, _n_ids)``."""
        i = np.asarray(ids, dtype=np.int64).ravel()
        # Negative ids viewed as uint64 exceed the range: one reduction.
        if i.size and i.view(np.uint64).max() >= self._n_ids:
            raise GcError(f"object id out of range [0, {self._n_ids})")
        return i

    def _take_ids(self, n: int) -> np.ndarray:
        ids = np.empty(n, dtype=np.int64)
        got = 0
        while got < n and self._free_ids:
            chunk = self._free_ids[-1]
            take = min(len(chunk), n - got)
            ids[got:got + take] = chunk[-take:]
            if take == len(chunk):
                self._free_ids.pop()
            else:
                self._free_ids[-1] = chunk[:-take]
            got += take
        fresh = n - got
        if fresh:
            self._grow(fresh)
            ids[got:] = np.arange(self._n_ids, self._n_ids + fresh)
            self._n_ids += fresh
        return ids

    # ------------------------------------------------------------------
    # page management
    # ------------------------------------------------------------------
    def _take_pages(self, n: int) -> np.ndarray:
        pages = np.empty(n, dtype=np.int64)
        got = 0
        while got < n and self._free_pages:
            pages[got] = self._free_pages.pop()
            got += 1
        fresh = n - got
        if fresh:
            if self._next_heap_vpn + fresh > self.vma.end_vpn:
                raise GcError(
                    f"GC heap exhausted: need {fresh} pages, "
                    f"{self.vma.end_vpn - self._next_heap_vpn} left"
                )
            pages[got:] = np.arange(
                self._next_heap_vpn, self._next_heap_vpn + fresh
            )
            self._next_heap_vpn += fresh
        return pages

    def _add_live(self, pages: np.ndarray, delta: int) -> np.ndarray:
        """``page_live[p] += delta`` once per occurrence of ``p`` in
        ``pages``; returns the distinct pages, ascending."""
        touched, counts = count_pages(pages, self._space_pages)
        self.page_live[touched] += delta * counts
        return touched

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self, n: int, size_bytes: int) -> np.ndarray:
        """Allocate ``n`` objects of ``size_bytes`` each; returns ids.

        Touches (writes) the backing pages through the guest kernel and
        charges the application's allocation work as tracked compute.
        """
        if n <= 0:
            raise GcError(f"alloc count must be > 0: {n}")
        if size_bytes <= 0:
            raise GcError(f"object size must be > 0: {size_bytes}")
        per_page = max(1, PAGE_SIZE // size_bytes)
        span = max(1, -(-size_bytes // PAGE_SIZE))  # pages per big object

        ids = self._take_ids(n)
        each, at = _column_index(ids)
        if span > 1:
            # Large objects: span whole pages; record the first page.
            pages = self._take_pages(n * span)
            self.obj_page[at] = pages[::span]
            touched = pages
            self._add_live(pages, 1)
        else:
            # Small objects: bump-pack into per-class pages.
            vpn, used = self._bump.get(size_bytes, (-1, per_page))
            slots_in_cur = per_page - used if vpn >= 0 else 0
            take_cur = min(n, slots_in_cur)
            n_rest = n - take_cur
            fresh_pages = self._take_pages(-(-n_rest // per_page)) if n_rest else \
                np.empty(0, dtype=np.int64)
            pages_assign = np.empty(n, dtype=np.int64)
            if take_cur:
                pages_assign[:take_cur] = vpn
            if n_rest:
                pages_assign[take_cur:] = np.repeat(fresh_pages, per_page)[:n_rest]
            self.obj_page[at] = pages_assign
            touched = self._add_live(pages_assign, 1)
            # Update bump state.
            if n_rest:
                used_last = n_rest - (len(fresh_pages) - 1) * per_page
                self._bump[size_bytes] = (int(fresh_pages[-1]), used_last)
            else:
                self._bump[size_bytes] = (vpn, used + take_cur)

        self.obj_size[each] = size_bytes
        self.obj_span[each] = span
        self.alive[each] = True
        self.gen[each] = GEN_YOUNG
        self.allocated_bytes_since_gc += n * size_bytes
        self.total_allocated_objects += n

        # The allocator writes headers/contents: dirty pages.
        self.kernel.access(self.process, touched, True)
        alloc_us = n * self.kernel.costs.params.gc_alloc_us_per_obj
        self.kernel.compute(self.process, alloc_us)
        return ids

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def set_refs(self, src: np.ndarray | list[int], dst: np.ndarray | list[int]) -> None:
        """Store references src[i] -> dst[i]; writes the source pages."""
        s, d = self._ids(src), self._ids(dst)
        if s.size != d.size:
            raise GcError("set_refs length mismatch")
        if s.size == 0:
            return
        if not (self.alive[s].all() and self.alive[d].all()):
            raise GcError("set_refs on a dead object")
        if _ascending(s, strict=False):
            self._runs.append((s.copy(), d.copy()))
        else:
            order = np.argsort(s, kind="stable")
            self._runs.append((s[order], d[order]))
        self.n_edges += int(s.size)
        self._settle_runs()
        self.kernel.access(self.process, self.pages_of(s), True)

    def replace_ref(self, src: int, old_dst: int, new_dst: int | None) -> None:
        """Overwrite a pointer cell: drop src -> old_dst, optionally add
        src -> new_dst.  Writes the source page (pointers are data)."""
        src, old_dst = int(src), int(old_dst)
        if not self.alive[src]:
            raise GcError("replace_ref on a dead source")
        # Runs are in append order, and so is each source's range within
        # a run: the first hit is the oldest such edge.
        for k, (s, d) in enumerate(self._runs):
            lo, hi = np.searchsorted(s, [src, src + 1])
            hit = np.flatnonzero(d[lo:hi] == old_dst)
            if hit.size:
                at = lo + hit[0]
                self._runs[k] = (np.delete(s, at), np.delete(d, at))
                self.n_edges -= 1
                self._settle_runs()
                break
        else:
            raise GcError(f"no edge {src} -> {old_dst} to replace")
        if new_dst is not None:
            self.set_refs([src], [int(new_dst)])
        else:
            self.kernel.access(self.process, self.obj_page[src:src + 1], True)

    def _settle_runs(self) -> None:
        """Drop empty runs and merge each run that is at least half the
        size of its predecessor into it, so every run is more than twice
        the next and there are at most ``floor(log2 n_edges) + 1``."""
        runs = [r for r in self._runs if r[0].size]
        k = len(runs) - 1
        while k > 0:
            if 2 * runs[k][0].size >= runs[k - 1][0].size:
                runs[k - 1:k + 1] = [_merged(runs[k - 1:k + 1])]
            k -= 1
        self._runs = runs

    def write_objs(self, ids: np.ndarray | list[int]) -> None:
        """Mutate object payloads (no reference change)."""
        i = self._ids(ids)
        if i.size == 0:
            return
        if not self.alive[i].all():
            raise GcError("write to a dead object")
        self.kernel.access(self.process, self.pages_of(i), True)

    def read_objs(self, ids: np.ndarray | list[int]) -> None:
        i = self._ids(ids)
        if i.size == 0:
            return
        if not self.alive[i].all():
            raise GcError("read of a dead object")
        self.kernel.access(self.process, self.pages_of(i), False)

    # ------------------------------------------------------------------
    # roots
    # ------------------------------------------------------------------
    def add_roots(self, ids: np.ndarray | list[int]) -> None:
        """Root ``ids``; every id is checked before any is rooted."""
        i = self._ids(ids)
        dead = i[~self.alive[i]]
        if dead.size:
            raise GcError(f"root {int(dead[0])} is dead")
        self.is_root[i] = True

    def remove_roots(self, ids: np.ndarray | list[int]) -> None:
        self.is_root[self._ids(ids)] = False

    # ------------------------------------------------------------------
    # queries used by the collector
    # ------------------------------------------------------------------
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, dst) adjacency over every stored edge, each source's
        targets in append order.  Built on demand: marking and the UAF
        scan use :meth:`out_edges`, which needs no rebuild."""
        src, dst = _merged(self._runs)
        indptr = np.zeros(self._n_ids + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self._n_ids), out=indptr[1:])
        return indptr, dst

    def out_edges(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` of every edge out of ``ids``, as a multiset.

        The order is run-major, not by source.  Each run answers by
        binary search on its sources, so a minor cycle's scan set of a
        few thousand ids costs a few searches per run, not a CSR rebuild
        over the whole id space.
        """
        hits = self._edge_positions(ids)
        return (np.concatenate([_NO_IDS] + [src[at] for src, _, at in hits]),
                np.concatenate([_NO_IDS] + [dst[at] for _, dst, at in hits]))

    def out_neighbors(self, ids: np.ndarray) -> np.ndarray:
        """Targets of every edge out of ``ids``, as a multiset (every
        caller, both marks, dedupes them through ``unique_pages``)."""
        hits = self._edge_positions(ids)
        return np.concatenate([_NO_IDS] + [dst[at] for _, dst, at in hits])

    def _edge_positions(
        self, ids: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(src, dst, at)`` for each run with edges out of ``ids``:
        ``at`` indexes those edges in the run's columns."""
        ids = self._ids(ids)
        hits = []
        for src, dst in self._runs:
            starts = np.searchsorted(src, ids, "left")
            lens = np.searchsorted(src, ids, "right") - starts
            if lens.any():
                hits.append((src, dst, _ranges(starts, lens)))
        return hits

    def pages_of(self, ids: np.ndarray) -> np.ndarray:
        """Distinct first pages of objects ``ids``, ascending."""
        return unique_pages(self.obj_page[ids], self._space_pages)

    def objects_on_pages(self, vpns: np.ndarray) -> np.ndarray:
        """Live object ids whose first page is one of ``vpns``, ascending.

        Id order, not page order: both callers only read the result as a
        set (the minor mark re-sorts its scan set by id, and the UAF
        scan's per-object refcount updates commute).
        """
        if vpns.size == 0:
            return np.empty(0, dtype=np.int64)
        live = self.live_ids()
        return live[page_bitmap(vpns, self._space_pages)[self.obj_page[live]]]

    def live_ids(self) -> np.ndarray:
        return np.nonzero(self.alive[: self._n_ids])[0]

    @property
    def n_live(self) -> int:
        return int(self.alive[: self._n_ids].sum())

    # ------------------------------------------------------------------
    # reclamation (called by the collector)
    # ------------------------------------------------------------------
    def free_objects(self, ids: np.ndarray) -> int:
        """Free objects; release fully-dead pages back to the heap."""
        ids = self._ids(ids)
        if ids.size == 0:
            return 0
        # Repeats would break the slice writes below (and the free list).
        if has_repeats(ids, self._n_ids):
            raise GcError("double free of GC object: id repeated in one call")
        each, at = _column_index(ids)
        if not self.alive[each].all():
            raise GcError("double free of GC object")
        spans = self.obj_span[at]
        pages = self.obj_page[at]
        if int(spans.sum()) != ids.size:
            pages = _ranges(pages, spans)  # every page of each large object
        # Before the clear below: ``pages`` may be a view of obj_page.
        candidates = self._add_live(pages, -1)
        self.alive[each] = False
        self.obj_page[each] = -1
        self._free_ids.append(ids.copy())
        self._drop_out_edges(ids, each)
        # Pages with no live objects: unmap + reuse.
        empty = candidates[self.page_live[candidates] == 0]
        if empty.size:
            # Drop bump pointers into freed pages.
            freed = set(empty.tolist())
            self._bump = {
                s: (v, u) for s, (v, u) in self._bump.items() if v not in freed
            }
            present = self.process.space.pt.present_mask(empty)
            to_unmap = empty[present]
            if to_unmap.size:
                freed_gpfns = self.process.space.pt.unmap(to_unmap)
                # Unmapped translations must leave every vCPU's TLB.
                self.kernel.tlb_shootdown(self.process, to_unmap)
                self.kernel.vm.guest_frames.free(freed_gpfns)
            self._free_pages.extend(empty.tolist())
        return int(ids.size)

    def _drop_out_edges(self, ids: np.ndarray, each: slice | np.ndarray) -> None:
        """Cut every edge out of ``ids`` (distinct; ``each`` from
        :func:`_column_index`), so a reused id starts with none.  Runs are
        source-sorted, so the edges out of a block of consecutive ids are
        one range of each run, found by binary search: a bulk free costs a
        search per block, not per id or per edge."""
        if isinstance(each, slice):  # the ids are one block
            first, last = np.array([each.start]), np.array([each.stop - 1])
        else:
            ids = ids if _ascending(ids) else np.sort(ids)
            breaks = np.flatnonzero(ids[1:] != ids[:-1] + 1) + 1
            first = ids[np.r_[0, breaks]]
            last = ids[np.r_[breaks - 1, ids.size - 1]]
        for k, (src, dst) in enumerate(self._runs):
            starts = np.searchsorted(src, first, "left")
            ends = np.searchsorted(src, last, "right")
            hit = ends > starts
            if hit.any():
                # Keep the pieces between the cut ranges.
                keep = list(zip(np.r_[0, ends[hit]], np.r_[starts[hit], src.size]))
                self._runs[k] = (np.concatenate([src[i:j] for i, j in keep]),
                                 np.concatenate([dst[i:j] for i, j in keep]))
                self.n_edges -= int((ends - starts).sum())
        self._settle_runs()

    def compact_edges(self) -> None:
        """Drop edges to dead objects (run at full collections): a lossy
        technique can free a young object a live old object points to."""
        if self.n_edges == 0:
            return
        src, dst = _merged(self._runs)
        keep = self.alive[dst]  # every stored source is live
        self._runs = [(src[keep], dst[keep])]
        self.n_edges = int(keep.sum())
        self._settle_runs()


def _ascending(ids: np.ndarray, strict: bool = True) -> bool:
    """Whether ``ids`` is sorted (strictly: also without repeats)."""
    if ids.size < 2:
        return True
    cmp = np.greater if strict else np.greater_equal
    return bool(cmp(ids[1:], ids[:-1]).all())


def _column_index(ids: np.ndarray) -> tuple[slice | np.ndarray, slice | np.ndarray]:
    """``(each, at)``: indexes into the id columns for ``ids`` (distinct,
    non-empty).  ``col[each] = v`` writes one value to every id;
    ``col[at] = values`` writes ``values[i]`` to ``ids[i]``.

    When ``ids`` are exactly the ids ``lo..hi`` in some order, ``each``
    is the slice ``lo:hi+1``, and so is ``at`` if they also ascend: a
    slice write costs a fraction of a scatter.  Only the extremes are
    compared, so the caller must have excluded repeats; every id handed
    out or freed is distinct within its call.
    """
    lo, hi = int(ids.min()), int(ids.max())
    if hi - lo != ids.size - 1:
        return ids, ids
    whole = slice(lo, hi + 1)
    return whole, whole if _ascending(ids) else ids


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The ranges ``[starts[i], starts[i] + lens[i])`` concatenated."""
    return np.repeat(starts + lens - lens.cumsum(), lens) + np.arange(int(lens.sum()))


def _merged(runs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """One source-sorted run from ``runs``, oldest first, stably: equal
    sources keep run order (timsort merges the sorted runs in one pass)."""
    if len(runs) == 1:
        return runs[0]
    src = np.concatenate([s for s, _ in runs] or [np.empty(0, dtype=np.int64)])
    dst = np.concatenate([d for _, d in runs] or [np.empty(0, dtype=np.int64)])
    order = np.argsort(src, kind="stable")
    return src[order], dst[order]
