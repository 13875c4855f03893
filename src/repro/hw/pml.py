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

__all__ = ["PmlBuffer", "PmlCircuit"]

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


class PmlCircuit:
    """The logging datapath attached to one vCPU.

    The circuit reads its enables from the vCPU's current VMCS each call,
    so hypervisor (ordinary VMCS) and guest (shadow VMCS via vmwrite)
    control it exactly as on real hardware.
    """

    def __init__(
        self,
        vmcs_obj: vm.Vmcs,
        capacity: int = PML_BUFFER_ENTRIES,
        vcpu_id: int = 0,
    ) -> None:
        self.vmcs = vmcs_obj
        self.capacity = capacity
        #: Owning vCPU (SMP: one circuit per vCPU; tags trace events).
        self.vcpu_id = vcpu_id
        self.hyp_buffer: PmlBuffer | None = None
        self.guest_buffer: PmlBuffer | None = None
        #: Hypervisor's PML-full vmexit handler (drains hyp buffer).
        self.on_hyp_full: DrainCallback | None = None
        #: Guest's self-IPI path (drains guest buffer).
        self.on_guest_full: DrainCallback | None = None
        self.n_hyp_full_events = 0
        self.n_guest_full_events = 0
        self.n_hyp_logged = 0
        self.n_guest_logged = 0
        #: Entries discarded because a full event found no drain handler
        #: (the circuit keeps logging consistently instead of trapping
        #: mid-batch; consumers must check these counters).
        self.n_hyp_dropped = 0
        self.n_guest_dropped = 0
        #: Entries lost to an injected buffer-full race (repro.faults).
        self.n_hyp_injected_drops = 0
        self.n_guest_injected_drops = 0

    # ------------------------------------------------------------------
    # configuration (mirrors VMCS field writes)
    # ------------------------------------------------------------------
    def configure_hyp_buffer(self) -> None:
        self.hyp_buffer = PmlBuffer(self.capacity)
        self.vmcs.write(vm.F_PML_ADDRESS, 1)
        self.vmcs.write(vm.F_PML_INDEX, self.hyp_buffer.index)

    def configure_guest_buffer(self) -> None:
        self.guest_buffer = PmlBuffer(self.capacity)
        self.vmcs.write(vm.F_GUEST_PML_ADDRESS, 1)
        self.vmcs.write(vm.F_GUEST_PML_INDEX, self.guest_buffer.index)

    def _guest_vmcs(self) -> vm.Vmcs:
        """Guest-owned fields live in the shadow VMCS when linked (EPML);
        hypervisor-owned fields always live in the ordinary VMCS."""
        return self.vmcs.link if self.vmcs.link is not None else self.vmcs

    def hyp_enabled(self) -> bool:
        return bool(self.vmcs.read(vm.F_CTRL_ENABLE_PML))

    def guest_enabled(self) -> bool:
        return bool(self._guest_vmcs().read(vm.F_CTRL_ENABLE_GUEST_PML))

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------
    def log_gpas(self, gpfns: np.ndarray) -> None:
        """Log newly-EPT-dirty GPFNs to the hypervisor-level buffer."""
        if not self.hyp_enabled() or len(gpfns) == 0:
            return
        if self.hyp_buffer is None:
            raise PmlError("PML enabled but no PML buffer configured")
        values = np.asarray(gpfns, dtype=np.uint64)
        if finj.ACTIVE is not None:
            kept = finj.ACTIVE.drop_entries(FaultSite.PML_ENTRY_DROP, values)
            dropped = int(values.size - kept.size)
            self.n_hyp_injected_drops += dropped
            if dropped and otr.ACTIVE is not None:
                otr.ACTIVE.emit(
                    EventKind.PML_DROP,
                    level="hyp",
                    cause="injected",
                    n=dropped,
                    vcpu_id=self.vcpu_id,
                )
            values = kept
        self.n_hyp_logged += int(len(values))
        self._fill(self.hyp_buffer, values, self._raise_hyp_full)
        self.vmcs.write(vm.F_PML_INDEX, self.hyp_buffer.index)

    def log_gvas(self, vpns: np.ndarray) -> None:
        """Log newly-PTE-dirty VPNs to the guest-level buffer (EPML)."""
        if not self.guest_enabled() or len(vpns) == 0:
            return
        if self.guest_buffer is None:
            raise PmlError("guest PML enabled but no guest buffer configured")
        values = np.asarray(vpns, dtype=np.uint64)
        if finj.ACTIVE is not None:
            kept = finj.ACTIVE.drop_entries(FaultSite.PML_ENTRY_DROP, values)
            dropped = int(values.size - kept.size)
            self.n_guest_injected_drops += dropped
            if dropped and otr.ACTIVE is not None:
                otr.ACTIVE.emit(
                    EventKind.PML_DROP,
                    level="guest",
                    cause="injected",
                    n=dropped,
                    vcpu_id=self.vcpu_id,
                )
            values = kept
        self.n_guest_logged += int(len(values))
        self._fill(self.guest_buffer, values, self._raise_guest_full)
        self._guest_vmcs().write(vm.F_GUEST_PML_INDEX, self.guest_buffer.index)

    def _fill(
        self, buf: PmlBuffer, values: np.ndarray, on_full: Callable[[], None]
    ) -> None:
        pos = 0
        while pos < len(values):
            pos += buf.append(values[pos:])
            if buf.space == 0:
                on_full()

    # ------------------------------------------------------------------
    # full events
    # ------------------------------------------------------------------
    def _raise_hyp_full(self) -> None:
        # Atomic batch contract: a full event mid-batch must never abort
        # the log call (that would leave buffer/counters inconsistent for
        # the entries already consumed).  Without a handler the hardware
        # wraps silently; we drain, count the loss, and keep logging.
        self.n_hyp_full_events += 1
        assert self.hyp_buffer is not None
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.PML_FULL,
                level="hyp",
                occupancy=self.hyp_buffer.n_logged,
                handled=self.on_hyp_full is not None,
                vcpu_id=self.vcpu_id,
            )
        batch = self.hyp_buffer.drain()
        if self.on_hyp_full is None:
            self.n_hyp_dropped += int(len(batch))
            if otr.ACTIVE is not None and len(batch):
                otr.ACTIVE.emit(
                    EventKind.PML_DROP,
                    level="hyp",
                    cause="no_handler",
                    n=int(len(batch)),
                    vcpu_id=self.vcpu_id,
                )
        else:
            self.on_hyp_full(batch)

    def _raise_guest_full(self) -> None:
        self.n_guest_full_events += 1
        assert self.guest_buffer is not None
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.PML_FULL,
                level="guest",
                occupancy=self.guest_buffer.n_logged,
                handled=self.on_guest_full is not None,
                vcpu_id=self.vcpu_id,
            )
        batch = self.guest_buffer.drain()
        if self.on_guest_full is None:
            self.n_guest_dropped += int(len(batch))
            if otr.ACTIVE is not None and len(batch):
                otr.ACTIVE.emit(
                    EventKind.PML_DROP,
                    level="guest",
                    cause="no_handler",
                    n=int(len(batch)),
                    vcpu_id=self.vcpu_id,
                )
        else:
            self.on_guest_full(batch)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        return {
            "n_hyp_full_events": self.n_hyp_full_events,
            "n_guest_full_events": self.n_guest_full_events,
            "n_hyp_logged": self.n_hyp_logged,
            "n_guest_logged": self.n_guest_logged,
            "n_hyp_dropped": self.n_hyp_dropped,
            "n_guest_dropped": self.n_guest_dropped,
            "n_hyp_injected_drops": self.n_hyp_injected_drops,
            "n_guest_injected_drops": self.n_guest_injected_drops,
        }

    # ------------------------------------------------------------------
    # explicit drains (harvest paths)
    # ------------------------------------------------------------------
    def drain_hyp(self) -> np.ndarray:
        if self.hyp_buffer is None:
            return np.empty(0, dtype=np.uint64)
        if otr.ACTIVE is not None:
            # Residual occupancy at an explicit harvest drain: the low end
            # of the flush-occupancy distribution (full events pin the top).
            otr.ACTIVE.metrics.observe(
                "pml.occupancy_at_flush", self.hyp_buffer.n_logged
            )
        out = self.hyp_buffer.drain()
        self.vmcs.write(vm.F_PML_INDEX, self.hyp_buffer.index)
        return out

    def drain_guest(self) -> np.ndarray:
        if self.guest_buffer is None:
            return np.empty(0, dtype=np.uint64)
        if otr.ACTIVE is not None:
            otr.ACTIVE.metrics.observe(
                "pml.occupancy_at_flush", self.guest_buffer.n_logged
            )
        out = self.guest_buffer.drain()
        self._guest_vmcs().write(vm.F_GUEST_PML_INDEX, self.guest_buffer.index)
        return out
