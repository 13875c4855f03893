"""faabric-style unified dirty tracker: one facade, every technique.

Faabric's ``DirtyTracker`` selects an implementation by a mode string and
exposes one small API to the scheduler: start/stop/get dirty pages,
copy-on-write snapshot mapping, and dirty-region extraction.
:class:`UnifiedDirtyTracker` is that facade over this repo's
:class:`~repro.core.tracking.DirtyPageTracker` registry:

* **mode selection** — any string from
  :func:`repro.core.tracking.available_modes` (oracle/spml/epml/proc/
  ufd/fallback); ``start``/``collect``/``stop`` are a *pure passthrough*
  to the technique, so the facade's dirty sets are bit-identical to
  driving the technique directly (the differential tests pin this), and
  :attr:`UnifiedDirtyTracker.tracker` exposes the technique itself to
  audit layers;
* **snapshot mapping** — :meth:`map_regions` lays a
  :class:`~repro.serverless.snapshot.Snapshot`'s contents over a mapped
  VMA as a CoW restore: page-table bookkeeping cost, no copy, and —
  critically — no dirty-bit side effects, so tracking starts clean;
* **diff extraction** — :meth:`extract_diff` turns a tracker's (possibly
  over-reported) dirty set into a byte-exact
  :class:`~repro.serverless.snapshot.SnapshotDiff` by comparing page
  contents against the restore image.
"""

from __future__ import annotations

import numpy as np

from repro.core.clock import World
from repro.core.costs import EV_SNAPSHOT_COPY, EV_SNAPSHOT_MAP
from repro.core.tracking import available_modes, make_tracker
from repro.errors import TrackingError
from repro.guest.kernel import GuestKernel
from repro.guest.process import Process
from repro.obs import trace as otr
from repro.obs.events import EventKind
from repro.serverless.snapshot import Snapshot, SnapshotDiff

__all__ = ["MappedRegion", "UnifiedDirtyTracker", "DEFAULT_MODE"]

DEFAULT_MODE = "epml"


class MappedRegion:
    """Where a snapshot was mapped, plus the restore-time base image.

    ``base_tokens`` is a copy of the snapshot's tokens *at map time*: the
    master snapshot may be merged concurrently with this instance's run,
    and the byte-exact diff must compare against what this instance
    actually restored from.
    """

    __slots__ = (
        "snapshot_name",
        "snapshot_version",
        "start_vpn",
        "n_pages",
        "base_tokens",
    )

    def __init__(
        self,
        snapshot_name: str,
        snapshot_version: int,
        start_vpn: int,
        n_pages: int,
        base_tokens: np.ndarray,
    ) -> None:
        self.snapshot_name = snapshot_name
        self.snapshot_version = snapshot_version
        self.start_vpn = start_vpn
        self.n_pages = n_pages
        self.base_tokens = base_tokens

    @property
    def end_vpn(self) -> int:
        return self.start_vpn + self.n_pages


class UnifiedDirtyTracker:
    """One tracking facade over every registered technique."""

    def __init__(
        self,
        kernel: GuestKernel,
        process: Process,
        mode: str = DEFAULT_MODE,
        **tracker_kwargs: object,
    ) -> None:
        if mode not in available_modes():
            raise TrackingError(
                f"unknown tracking mode {mode!r}; "
                f"available: {', '.join(available_modes())}"
            )
        self.kernel = kernel
        self.process = process
        self.mode = mode
        #: The wrapped technique — exposed so audit layers
        #: (:class:`repro.faults.auditor.CompletenessAuditor`) can see
        #: through the facade.
        self.tracker = make_tracker(mode, kernel, process, **tracker_kwargs)

    def start(self) -> None:
        self.tracker.start()

    def collect(self) -> np.ndarray:
        """Dirty VPNs since the last collect — the technique's own answer,
        bit-identical to driving it without the facade."""
        return self.tracker.collect()

    def stop(self) -> None:
        self.tracker.stop()

    def get_dirty_offsets(self, region: MappedRegion) -> np.ndarray:
        """Region-relative page offsets the technique reports dirty."""
        vpns = np.sort(self.collect())
        lo = np.searchsorted(vpns, region.start_vpn, side="left")
        hi = np.searchsorted(vpns, region.end_vpn, side="left")
        return (vpns[lo:hi] - region.start_vpn).astype(np.int64)

    # -- snapshot mapping / diff extraction ---------------------------
    def map_regions(self, snapshot: Snapshot, start_vpn: int = 0) -> MappedRegion:
        """CoW-map ``snapshot``'s contents over the process's pages.

        The target range must already be demand-paged in (the instance
        prefaults with reads); mapping is a store, so no PTE dirty bits
        are set and tracking starts from a clean image — the CoW model:
        the restore shares the master copy until the function writes.
        """
        vpns = start_vpn + np.arange(snapshot.n_pages, dtype=np.int64)
        self.kernel.clock.charge(
            self.kernel.costs.params.snapshot_map_us_per_page * snapshot.n_pages,
            World.TRACKER,
            EV_SNAPSHOT_MAP,
            snapshot.n_pages,
        )
        self.kernel.vm.mmu.map_page_contents(
            self.process.space.pt, vpns, snapshot.tokens
        )
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.SNAPSHOT_MAP,
                snapshot=snapshot.name,
                version=snapshot.version,
                start_vpn=int(start_vpn),
                n_pages=snapshot.n_pages,
                mode=self.mode,
            )
        return MappedRegion(
            snapshot.name,
            snapshot.version,
            int(start_vpn),
            snapshot.n_pages,
            snapshot.tokens.copy(),
        )

    def extract_diff(
        self, region: MappedRegion, instance_id: str, commit_seq: int
    ) -> SnapshotDiff:
        """Collect, then reduce to the byte-exact changed set.

        Trackers may over-report (a conservative resync returns every
        mapped page); comparing contents against the restore image trims
        the report to pages that actually changed, so the merged snapshot
        is identical whichever technique tracked the instance.
        """
        dirty = self.get_dirty_offsets(region)
        vpns = region.start_vpn + dirty
        tokens = self.kernel.vm.mmu.read_page_contents(self.process.space.pt, vpns)
        self.kernel.clock.charge(
            self.kernel.costs.params.snapshot_copy_us_per_page * dirty.size,
            World.TRACKER,
            EV_SNAPSHOT_COPY,
            int(dirty.size),
        )
        changed = tokens != region.base_tokens[dirty]
        diff = SnapshotDiff(
            instance_id=instance_id,
            commit_seq=commit_seq,
            offsets=dirty[changed],
            tokens=tokens[changed],
        )
        if otr.ACTIVE is not None:
            fields = {
                "snapshot": region.snapshot_name,
                "instance": instance_id,
                "commit_seq": int(commit_seq),
                "n_dirty": int(dirty.size),
                "n_changed": diff.n_pages,
                "mode": self.mode,
            }
            if otr.ACTIVE.detail:
                # Region-relative offsets, so trace invariants can check
                # each one was logged dirty (COLLECT) and written (WRITE)
                # before the diff claimed it.
                fields["offsets"] = [int(x) for x in diff.offsets]
            otr.ACTIVE.emit(EventKind.SNAPSHOT_DIFF, **fields)
        return diff
