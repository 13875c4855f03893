"""One serverless function instance: restore → execute → diff → exit.

The lifecycle mirrors a faabric/Firecracker-style invocation:

1. **spawn** a short-lived process sized to the snapshot;
2. **prefault** the region with reads (demand paging maps the pages
   without dirtying them);
3. **map** the snapshot's contents over the region (CoW restore);
4. **track** — start the facade, run the tenant's access plan (read the
   touched pages, compute, write the written pages, compute), stamp the
   function's deterministic output tokens;
5. **diff** — extract the byte-exact delta with the commit sequence the
   driver assigned;
6. **exit** — stop tracking, tear the process down, frames return to the
   guest allocator for the next instance.

Output stamping is what keeps merged snapshots schedule-independent: a
real function's output bytes depend on its input, not on host scheduling,
but the simulator's organic write tokens are global-sequence numbers.
After the plan runs (organically, through the MMU — that is what the
trackers observe), the instance overwrites its written pages with
:func:`~repro.serverless.snapshot.output_tokens` derived from
(tenant, request), via the store path (no dirty-bit side effects).
"""

from __future__ import annotations

import numpy as np

from repro.guest.kernel import GuestKernel
from repro.serverless.snapshot import Snapshot, SnapshotDiff, output_tokens
from repro.serverless.tracker import UnifiedDirtyTracker

__all__ = ["FunctionInstance"]

#: Modes whose loss paths must resync for the merged diff to be complete.
_RESYNC_MODES = frozenset({"spml", "epml"})


class FunctionInstance:
    """One invocation of a tenant's function against its snapshot."""

    def __init__(
        self,
        kernel: GuestKernel,
        mode: str,
        snapshot: Snapshot,
        tenant: str,
        request_id: int,
        plan: tuple[np.ndarray, np.ndarray],
        compute_us: float,
    ) -> None:
        self.kernel = kernel
        self.mode = mode
        self.snapshot = snapshot
        self.tenant = tenant
        self.request_id = request_id
        #: Sorted, distinct VPNs: the pages read, and the subset written
        #: (the function's output footprint).
        self.touched_vpns, self.write_vpns = plan
        self.compute_us = compute_us

    @property
    def instance_id(self) -> str:
        return f"{self.tenant}/{self.request_id}"

    def run(self, commit_seq: int) -> SnapshotDiff:
        """Execute the full lifecycle; return the byte-exact diff."""
        kernel = self.kernel
        n_pages = self.snapshot.n_pages
        proc = kernel.spawn(self.instance_id, n_pages=n_pages)
        proc.space.add_vma(n_pages, name="snapshot")
        # Read-prefault: maps every page (minor faults) without setting
        # dirty bits, so the restore image lands on present, clean pages.
        kernel.access(proc, np.arange(n_pages, dtype=np.int64), False)
        # Short-lived instances get exactly one collect; a lost batch would
        # silently drop merged pages, so loss must resync.
        kwargs = {"resync_on_loss": True} if self.mode in _RESYNC_MODES else {}
        facade = UnifiedDirtyTracker(kernel, proc, self.mode, **kwargs)
        region = facade.map_regions(self.snapshot)
        facade.start()
        try:
            kernel.access(proc, self.touched_vpns, False)
            kernel.compute(proc, self.compute_us)
            kernel.access(proc, self.write_vpns, True)
            kernel.compute(proc, self.compute_us)
            if self.write_vpns.size:
                kernel.vm.mmu.write_page_contents(
                    proc.space.pt,
                    self.write_vpns,
                    output_tokens(self.instance_id, self.write_vpns),
                )
            diff = facade.extract_diff(region, self.instance_id, commit_seq)
        finally:
            facade.stop()
            kernel.exit_process(proc)
        return diff
