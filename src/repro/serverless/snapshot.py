"""Serverless snapshots: shared base images, byte-exact diffs, merges.

A :class:`Snapshot` is the host-side master copy of one function's memory
region, modelled — like :class:`repro.hw.memory.PhysicalMemory` — as one
uint64 content token per page.  Instances restore from it
(:meth:`~repro.serverless.tracker.UnifiedDirtyTracker.map_regions`),
run, and return a :class:`SnapshotDiff`: the byte-exact set of pages
whose content actually changed, not merely the pages a tracker reported
dirty (trackers legitimately over-report after a conservative resync).

Merging applies diffs **last-writer-wins by commit sequence**: the
driver assigns each instance a commit_seq when it finishes, and
:meth:`Snapshot.merge` sorts on it before applying, so the merged image
depends only on commit order — never on SMP scheduling, tracker choice,
or host dict ordering.  All token derivation is crc32/splitmix-based
(:func:`stable_token`), so it is reproducible across processes and
``PYTHONHASHSEED`` values.

This module is deliberately pure (no clock, no kernel): the hypothesis
merge battery drives it with thousands of generated schedules without
building simulator stacks.  Time costs for map/diff/merge are charged by
the facade and driver, which own a clock.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = [
    "Snapshot",
    "SnapshotDiff",
    "output_tokens",
    "stable_token",
]

_MIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: a bijective uint64 avalanche (vectorised)."""
    x = (x + _MIX_GAMMA).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _seed64(*parts: object) -> np.uint64:
    """A 64-bit seed from the crc32 of the joined key (hash()-free:
    stable across processes and PYTHONHASHSEED)."""
    key = "\x1f".join(str(p) for p in parts).encode()
    lo = zlib.crc32(key)
    hi = zlib.crc32(key, 0x9E37)
    return np.uint64((hi << 32) | lo)


def stable_token(*parts: object) -> np.uint64:
    """One deterministic nonzero content token for a namespaced key."""
    tok = _mix64(np.asarray([_seed64(*parts)], dtype=np.uint64))[0]
    return tok if tok else np.uint64(1)


def output_tokens(namespace: str, offsets: np.ndarray) -> np.ndarray:
    """Deterministic tokens for ``offsets`` within ``namespace``.

    Vectorised equivalent of ``[stable_token(namespace, o) for o in
    offsets]`` in spirit (not value): one crc seed per namespace, mixed
    with each offset.  Used to stamp a function instance's output bytes,
    which in a real system depend on the request, not on host scheduling.
    """
    offs = np.asarray(offsets, dtype=np.int64)
    toks = _mix64(_seed64(namespace) + offs.astype(np.uint64))
    toks[toks == 0] = 1  # token 0 means "never written"
    return toks


@dataclass(frozen=True)
class SnapshotDiff:
    """One instance's byte-exact dirty delta against its restore image.

    ``offsets`` are page offsets within the snapshot region, strictly
    ascending; ``tokens`` are the new contents at those offsets.
    ``commit_seq`` is the driver-assigned completion order — the *only*
    input to merge ordering.
    """

    instance_id: str
    commit_seq: int
    offsets: np.ndarray
    tokens: np.ndarray

    def __post_init__(self) -> None:
        offs = np.asarray(self.offsets, dtype=np.int64).ravel()
        toks = np.asarray(self.tokens, dtype=np.uint64).ravel()
        if offs.size != toks.size:
            raise WorkloadError("diff offsets and tokens length mismatch")
        if offs.size and (np.any(np.diff(offs) <= 0) or offs[0] < 0):
            raise WorkloadError("diff offsets must be strictly ascending, >= 0")
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "tokens", toks)

    @property
    def n_pages(self) -> int:
        return int(self.offsets.size)


@dataclass
class MergeStats:
    """What one :meth:`Snapshot.merge` call applied."""

    n_diffs: int = 0
    n_pages_applied: int = 0  # sum over diffs (overwrites counted twice)
    n_pages_unique: int = 0  # distinct offsets touched
    version: int = 0  # snapshot version after the merge
    applied_ids: list[str] = field(default_factory=list)  # in commit order


class Snapshot:
    """The master copy of one function's memory region.

    Lifecycle: a deterministic base image (:meth:`base`), a burst of
    instances mapped from it, their diffs merged back (:meth:`merge`),
    then :meth:`freeze` to produce the next burst's restore image — the
    diff → merge → re-snapshot cycle.
    """

    def __init__(self, name: str, n_pages: int, tokens: np.ndarray | None = None,
                 version: int = 0) -> None:
        if n_pages <= 0:
            raise WorkloadError(f"snapshot needs n_pages > 0: {n_pages}")
        self.name = name
        self.n_pages = n_pages
        if tokens is None:
            tokens = output_tokens(f"snapshot-base/{name}", np.arange(n_pages))
        tokens = np.asarray(tokens, dtype=np.uint64).ravel()
        if tokens.size != n_pages:
            raise WorkloadError("snapshot tokens length != n_pages")
        self.tokens = tokens.copy()
        self.version = version
        self.n_merged_diffs = 0

    @classmethod
    def base(cls, name: str, n_pages: int) -> "Snapshot":
        """A fresh deterministic base image (version 0)."""
        return cls(name, n_pages)

    def merge(self, diffs: list[SnapshotDiff]) -> MergeStats:
        """Apply ``diffs`` last-writer-wins in ascending commit order.

        Commit sequences must be unique: ties would make the result
        depend on the caller's list ordering, the exact nondeterminism
        this layer exists to exclude.
        """
        ordered = sorted(diffs, key=lambda d: d.commit_seq)
        seqs = [d.commit_seq for d in ordered]
        if len(set(seqs)) != len(seqs):
            raise WorkloadError(f"duplicate commit_seq in merge: {seqs}")
        stats = MergeStats(n_diffs=len(ordered))
        touched = np.zeros(self.n_pages, dtype=bool)
        for d in ordered:
            if d.offsets.size and int(d.offsets[-1]) >= self.n_pages:
                raise WorkloadError(
                    f"diff {d.instance_id} exceeds snapshot ({self.n_pages} pages)"
                )
            self.tokens[d.offsets] = d.tokens
            touched[d.offsets] = True
            stats.n_pages_applied += d.n_pages
            stats.applied_ids.append(d.instance_id)
        stats.n_pages_unique = int(touched.sum())
        self.version += 1
        self.n_merged_diffs += len(ordered)
        stats.version = self.version
        if otr.ACTIVE is not None:
            fields = {
                "snapshot": self.name,
                "version": self.version,
                "n_diffs": stats.n_diffs,
                "n_pages_applied": stats.n_pages_applied,
                "n_pages_unique": stats.n_pages_unique,
            }
            if otr.ACTIVE.detail:
                # The distinct offsets this merge touched: trace
                # invariants check each was first claimed by a diff.
                fields["offsets"] = [int(x) for x in np.flatnonzero(touched)]
            otr.ACTIVE.emit(EventKind.SNAPSHOT_MERGE, **fields)
        return stats

    def freeze(self) -> "Snapshot":
        """An independent copy at the current version (the next restore
        image; later merges into ``self`` cannot leak into it)."""
        return Snapshot(self.name, self.n_pages, self.tokens, version=self.version)

    def digest(self) -> str:
        """crc32 hex of the full token image — byte-identity fingerprint."""
        return f"{zlib.crc32(self.tokens.tobytes()):08x}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Snapshot({self.name!r}, n_pages={self.n_pages}, "
                f"version={self.version}, digest={self.digest()})")
