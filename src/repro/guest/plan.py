"""Access plans: compiled page-access phases for batch submission.

Workloads traditionally drive the kernel one batch at a time
(:meth:`~repro.guest.kernel.GuestKernel.access` then
:meth:`~repro.guest.kernel.GuestKernel.compute`), paying the per-call
overhead — state checks, scheduler affinity lookup, listener dispatch —
on every batch.  An :class:`AccessPlan` compiles a whole phase (the
access batches *and* the interleaved compute charges, in their original
order) into one object the kernel executes with a single entry
(:meth:`~repro.guest.kernel.GuestKernel.access_plan`), amortizing that
overhead across the phase.

Execution is *semantically identical* to issuing the same calls one by
one: ops run in plan order, compute charges drive the scheduler exactly
as :meth:`GuestKernel.compute` does (including vCPU rotation on quantum
expiry — the executor re-resolves the process's vCPU after any switch),
and access listeners observe every per-batch :class:`MmuResult` in
order.  What changes is purely host-side bookkeeping.

Plans come in two flavours:

* **frozen** (:meth:`PlanBuilder.build`) — batch arrays are defensively
  copied, so the caller may reuse its buffers.  Use for phases executed
  repeatedly (a sequential pass the workload re-runs every iteration).
* **transient** (:meth:`PlanBuilder.build_transient` /
  :meth:`AccessPlan.from_batches`) — no copies.  Use for one-shot phases
  built from freshly generated offsets.

Either way each run of consecutive access batches becomes one
:class:`PlanSegment`, executed by :meth:`repro.hw.mmu.Mmu.access_segment`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GuestError

__all__ = ["PlanSegment", "AccessPlan", "PlanBuilder"]


class PlanSegment:
    """A run of consecutive access batches with no compute in between.

    ``batches`` holds ``(vpns, write)`` pairs exactly as
    :meth:`GuestKernel.access` accepts them (``write`` is a scalar bool
    or a per-access mask).
    """

    __slots__ = ("batches", "n_accesses", "n_writes")

    def __init__(self, batches: list[tuple[np.ndarray, np.ndarray | bool]]) -> None:
        self.batches = batches
        self.n_accesses = sum(int(v.size) for v, _ in batches)
        self.n_writes = sum(
            int(v.size if w is True else 0 if w is False else np.sum(w))
            for v, w in batches
        )


class AccessPlan:
    """A compiled phase: plan items executed in order by the kernel.

    ``items`` alternates :class:`PlanSegment` objects (access runs) and
    floats (compute charges in microseconds).
    """

    __slots__ = ("items", "n_batches", "n_accesses", "n_writes", "compute_us")

    def __init__(self, items: list) -> None:
        self.items = items
        self.n_batches = 0
        self.n_accesses = 0
        self.n_writes = 0
        self.compute_us = 0.0
        for item in items:
            if isinstance(item, PlanSegment):
                self.n_batches += len(item.batches)
                self.n_accesses += item.n_accesses
                self.n_writes += item.n_writes
            else:
                self.compute_us += item

    @classmethod
    def from_batches(
        cls, batches: list[tuple[np.ndarray, np.ndarray | bool]]
    ) -> AccessPlan:
        """Transient plan over pre-built ``(vpns, write)`` batches."""
        b = PlanBuilder()
        for vpns, write in batches:
            b.access(vpns, write)
        return b.build_transient()


class PlanBuilder:
    """Accumulates access/compute ops and compiles them into a plan."""

    def __init__(self) -> None:
        self._ops: list = []

    # -- ops, in execution order --------------------------------------
    def access(
        self, vpns: np.ndarray | list[int], write: np.ndarray | bool
    ) -> PlanBuilder:
        v = np.asarray(vpns, dtype=np.int64).ravel()
        if v.size == 0:
            # Mirror FlatContext.write/read: empty batches are dropped
            # before reaching the kernel.
            return self
        if not (np.isscalar(write) or np.ndim(write) == 0):
            w = np.asarray(write, dtype=bool).ravel()
            if w.size != v.size:
                raise GuestError("vpns and write mask length mismatch")
            write = w
        else:
            write = bool(write)
        self._ops.append(("a", v, write))
        return self

    def write(self, vpns: np.ndarray | list[int]) -> PlanBuilder:
        return self.access(vpns, True)

    def read(self, vpns: np.ndarray | list[int]) -> PlanBuilder:
        return self.access(vpns, False)

    def compute(self, us: float) -> PlanBuilder:
        if us < 0:
            raise GuestError(f"negative compute time: {us}")
        # Zero-cost charges are kept: SimClock.charge(0) still counts an
        # event, which differential tests compare.
        self._ops.append(("c", float(us)))
        return self

    # -- compilation ---------------------------------------------------
    def _compile(self, frozen: bool) -> AccessPlan:
        items: list = []
        run: list = []
        for op in self._ops:
            if op[0] == "a":
                v, w = op[1], op[2]
                if frozen:
                    v = v.copy()
                    if not isinstance(w, bool):
                        w = w.copy()
                run.append((v, w))
            else:
                if run:
                    items.append(PlanSegment(run))
                    run = []
                items.append(op[1])
        if run:
            items.append(PlanSegment(run))
        return AccessPlan(items)

    def build(self) -> AccessPlan:
        """Frozen plan: batch arrays copied."""
        return self._compile(frozen=True)

    def build_transient(self) -> AccessPlan:
        """Transient plan: batch arrays used as given."""
        return self._compile(frozen=False)
