"""Page Modification Logging circuit, including the EPML extension.

Original Intel PML (§II-B): while the ``ENABLE_PML`` VMCS control is set,
each write that sets an EPT dirty bit 0 -> 1 logs the GPA into a 512-entry
PML buffer; ``PML_INDEX`` starts at 511 and counts down; when the buffer is
full the CPU raises a vmexit and the hypervisor drains it.

EPML hardware extension (§IV-D): a *second*, guest-managed buffer
(``GUEST_PML_ADDRESS``/``GUEST_PML_INDEX``).  The modified page-walk
circuit logs the **GVA** to the guest-level buffer (sparing the guest the
GPA->GVA reverse mapping) and the GPA to the hypervisor-level buffer.  A
full guest-level buffer raises a posted *self-IPI* handled inside the
guest — no vmexit.

Gating detail (inferred, documented in DESIGN.md): the hypervisor-level
buffer is gated on EPT dirty-bit transitions (hypervisor owns and clears
those bits); the guest-level buffer is gated on *guest PTE* dirty-bit
transitions, which the guest kernel owns and can clear without hypervisor
involvement — consistent with EPML's goal of keeping the hypervisor off
the critical path.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.calibration import PML_BUFFER_ENTRIES
from repro.errors import PmlError
from repro.faults import injector as finj
from repro.faults.plan import FaultSite
from repro.hw import vmcs as vm
from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = ["PmlBuffer", "PmlCircuit", "PmlLevel"]

DrainCallback = Callable[[np.ndarray], None]


class PmlBuffer:
    """One 4 KiB PML buffer: 512 uint64 slots plus a count-down index."""

    def __init__(self, capacity: int = PML_BUFFER_ENTRIES) -> None:
        if capacity <= 0:
            raise PmlError(f"PML buffer capacity must be > 0: {capacity}")
        self.capacity = capacity
        self.entries = np.zeros(capacity, dtype=np.uint64)
        self.index = capacity - 1  # next slot to fill; counts down

    @property
    def n_logged(self) -> int:
        return self.capacity - 1 - self.index

    @property
    def space(self) -> int:
        return self.index + 1

    def append(self, values: np.ndarray) -> int:
        """Fill up to ``space`` entries; returns how many were consumed."""
        n = min(len(values), self.space)
        if n:
            # Hardware fills from index downward; entry order within the
            # buffer is reversed, which the drain reverses back.
            lo = self.index - n + 1
            self.entries[lo:self.index + 1] = values[:n][::-1]
            self.index -= n
        return n

    def drain(self) -> np.ndarray:
        """Return logged entries in logging order and reset the index."""
        out = self.entries[self.index + 1:][::-1].copy()
        self.index = self.capacity - 1
        return out


#: Each level's VMCS fields: (enable control, buffer address, index).
_FIELDS = {
    "hyp": (vm.F_CTRL_ENABLE_PML, vm.F_PML_ADDRESS, vm.F_PML_INDEX),
    "guest": (
        vm.F_CTRL_ENABLE_GUEST_PML, vm.F_GUEST_PML_ADDRESS, vm.F_GUEST_PML_INDEX
    ),
}


class PmlLevel:
    """One logging level (``"hyp"`` or ``"guest"``): a buffer, its VMCS
    fields, its full handler and its counters.

    The two levels differ only in where their fields live (the guest
    level's in the shadow VMCS once one is linked) and in ``on_full``:
    a vmexit for the hypervisor level, a posted self-IPI for the guest's.
    """

    def __init__(
        self, name: str, vmcs_obj: vm.Vmcs, capacity: int, vcpu_id: int
    ) -> None:
        self.name = name  # the ``level`` field of trace events
        self.f_enable, self.f_address, self.f_index = _FIELDS[name]
        self._vmcs = vmcs_obj
        self._shadowed = name == "guest"
        self.capacity = capacity
        self.vcpu_id = vcpu_id
        self.buffer: PmlBuffer | None = None
        #: Full-buffer handler: receives the drained batch.
        self.on_full: DrainCallback | None = None
        self.n_full_events = 0
        self.n_logged = 0
        #: Entries discarded because a full event found no drain handler
        #: (the circuit keeps logging consistently instead of trapping
        #: mid-batch; consumers must check this counter).
        self.n_dropped = 0
        #: Entries lost to an injected buffer-full race (repro.faults).
        self.n_injected_drops = 0

    @property
    def vmcs(self) -> vm.Vmcs:
        """Guest-owned fields live in the shadow VMCS when linked (EPML);
        hypervisor-owned fields always live in the ordinary VMCS."""
        v = self._vmcs
        return v.link if self._shadowed and v.link is not None else v

    def configure(self) -> None:
        self.buffer = PmlBuffer(self.capacity)
        v = self.vmcs
        v.write(self.f_address, 1)
        v.write(self.f_index, self.buffer.index)

    def enabled(self) -> bool:
        return bool(self.vmcs.read(self.f_enable))

    def log(self, values: np.ndarray) -> None:
        """Log newly-dirty page numbers if this level is enabled."""
        v = self.vmcs
        if not v.read(self.f_enable) or len(values) == 0:
            return
        buf = self.buffer
        if buf is None:
            raise PmlError(f"{self.name} PML enabled but no buffer configured")
        values = np.asarray(values, dtype=np.uint64)
        if finj.ACTIVE is not None:
            kept = finj.ACTIVE.drop_entries(FaultSite.PML_ENTRY_DROP, values)
            dropped = int(values.size - kept.size)
            self.n_injected_drops += dropped
            self._emit_drop("injected", dropped)
            values = kept
        self.n_logged += int(len(values))
        pos = 0
        while pos < len(values):
            pos += buf.append(values[pos:])
            if buf.space == 0:
                self._full()
        v.write(self.f_index, buf.index)

    def _full(self) -> None:
        # Atomic batch contract: a full event mid-batch must never abort
        # the log call (that would leave buffer/counters inconsistent for
        # the entries already consumed).  Without a handler the hardware
        # wraps silently; we drain, count the loss, and keep logging.
        self.n_full_events += 1
        assert self.buffer is not None
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.PML_FULL,
                level=self.name,
                occupancy=self.buffer.n_logged,
                handled=self.on_full is not None,
                vcpu_id=self.vcpu_id,
            )
        batch = self.buffer.drain()
        if self.on_full is None:
            self.n_dropped += int(len(batch))
            self._emit_drop("no_handler", int(len(batch)))
        else:
            self.on_full(batch)

    def _emit_drop(self, cause: str, n: int) -> None:
        if n and otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.PML_DROP,
                level=self.name,
                cause=cause,
                n=n,
                vcpu_id=self.vcpu_id,
            )

    def drain(self) -> np.ndarray:
        """Explicit harvest: logged entries in logging order; resets."""
        if self.buffer is None:
            return np.empty(0, dtype=np.uint64)
        if otr.ACTIVE is not None:
            # Residual occupancy at an explicit harvest drain: the low end
            # of the flush-occupancy distribution (full events pin the top).
            otr.ACTIVE.metrics.observe(
                "pml.occupancy_at_flush", self.buffer.n_logged
            )
        out = self.buffer.drain()
        self.vmcs.write(self.f_index, self.buffer.index)
        return out


class PmlCircuit:
    """The logging datapath of one vCPU: the hypervisor level (original
    PML: GPAs gated on EPT dirty bits) and the guest level (EPML: GVAs
    gated on guest PTE dirty bits).

    Each level reads its enable from the VMCS on every call, so the
    hypervisor (ordinary VMCS) and the guest (shadow VMCS via vmwrite)
    control it exactly as on real hardware.
    """

    def __init__(
        self, vmcs_obj: vm.Vmcs, capacity: int = PML_BUFFER_ENTRIES, vcpu_id: int = 0
    ) -> None:
        self.vmcs = vmcs_obj
        self.vcpu_id = vcpu_id  # SMP: one circuit per vCPU; tags trace events
        self.hyp = PmlLevel("hyp", vmcs_obj, capacity, vcpu_id)
        self.guest = PmlLevel("guest", vmcs_obj, capacity, vcpu_id)

    def log_gpas(self, gpfns: np.ndarray) -> None:
        """Log newly-EPT-dirty GPFNs to the hypervisor-level buffer."""
        self.hyp.log(gpfns)

    def log_gvas(self, vpns: np.ndarray) -> None:
        """Log newly-PTE-dirty VPNs to the guest-level buffer (EPML)."""
        self.guest.log(vpns)
