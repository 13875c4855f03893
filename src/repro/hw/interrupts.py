"""Virtual interrupt delivery: event channels and posted interrupts.

Two delivery paths matter to the paper:

* **Virtual interrupts / event channels** (SPML): the hypervisor signals
  the guest, which costs a vmexit-like transition on real hardware when
  the guest is running.
* **Posted interrupts** (EPML): the processor delivers an interrupt
  directly to a guest in VMX non-root mode *without a vmexit*; EPML uses a
  posted *self-IPI* to notify the guest that its guest-level PML buffer is
  full (paper §IV-D).

Delivery is synchronous in the simulator (single timeline): posting an
interrupt immediately runs the registered handler.
"""

from __future__ import annotations

from typing import Callable

from repro.core.clock import SimClock, World
from repro.core.costs import EV_SELF_IPI, CostModel
from repro.errors import ConfigurationError
from repro.faults import injector as finj
from repro.faults.plan import FaultSite
from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = [
    "VECTOR_OOH_PML_FULL",
    "VECTOR_TLB_SHOOTDOWN",
    "InterruptController",
]

#: Vector the OoH module registers for the EPML buffer-full self-IPI.
VECTOR_OOH_PML_FULL = 0xEC
#: Vector for SPP-violation notifications injected by the hypervisor
#: (OoH-SPP extension, paper §III-D).
VECTOR_OOH_SPP_VIOLATION = 0xED
#: Vector the guest kernel registers for cross-vCPU TLB shootdowns (SMP).
VECTOR_TLB_SHOOTDOWN = 0xEE

Handler = Callable[[int], None]


class InterruptController:
    """Per-vCPU interrupt routing with posted-interrupt support."""

    def __init__(self, clock: SimClock, costs: CostModel, vcpu_id: int = 0) -> None:
        self._clock = clock
        self._costs = costs
        self.vcpu_id = vcpu_id
        self._handlers: dict[int, Handler] = {}
        self.n_posted = 0
        self.n_virtual = 0
        #: Self-IPIs swallowed / deferred by fault injection.
        self.n_lost = 0
        self.n_delayed = 0
        self._delayed: list[int] = []

    def register(self, vector: int, handler: Handler) -> None:
        if not 0 <= vector <= 0xFF:
            raise ConfigurationError(f"interrupt vector out of range: {vector:#x}")
        self._handlers[vector] = handler

    def unregister(self, vector: int) -> None:
        self._handlers.pop(vector, None)

    def post(self, vector: int) -> bool:
        """Posted-interrupt delivery (no vmexit). Returns handled?"""
        self.n_posted += 1
        if finj.ACTIVE is not None:
            if finj.ACTIVE.should_fire(FaultSite.LOST_SELF_IPI):
                self.n_lost += 1
                if otr.ACTIVE is not None:
                    otr.ACTIVE.emit(
                        EventKind.SELF_IPI,
                        vector=vector,
                        outcome="lost",
                        vcpu_id=self.vcpu_id,
                    )
                return False
            if finj.ACTIVE.should_fire(FaultSite.DELAYED_SELF_IPI):
                self.n_delayed += 1
                self._delayed.append(vector)
                if otr.ACTIVE is not None:
                    otr.ACTIVE.emit(
                        EventKind.SELF_IPI,
                        vector=vector,
                        outcome="delayed",
                        vcpu_id=self.vcpu_id,
                    )
                return False
        if self._delayed:
            self.flush_delayed()
        return self._deliver(vector)

    def ipi(self, vector: int) -> bool:
        """Reliable inter-processor interrupt (TLB shootdowns, SMP).

        Real shootdown IPIs are delivered with guaranteed semantics (the
        initiating CPU spins until every target acknowledges), so this
        path is deliberately *not* subject to the lost/delayed self-IPI
        fault injection that models EPML's best-effort posted interrupts.
        """
        self.n_posted += 1
        return self._deliver(vector)

    def flush_delayed(self) -> int:
        """Deliver any injection-deferred self-IPIs; returns how many."""
        pending, self._delayed = self._delayed, []
        for vector in pending:
            self._deliver(vector)
        return len(pending)

    def _deliver(self, vector: int) -> bool:
        self._clock.charge(
            self._costs.params.self_ipi_us, World.KERNEL, EV_SELF_IPI
        )
        handler = self._handlers.get(vector)
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.SELF_IPI,
                vector=vector,
                outcome="delivered" if handler is not None else "unhandled",
                vcpu_id=self.vcpu_id,
            )
        if handler is None:
            return False
        handler(vector)
        return True

    def inject_virtual(self, vector: int) -> bool:
        """Hypervisor-originated virtual interrupt (event channel)."""
        self.n_virtual += 1
        handler = self._handlers.get(vector)
        if handler is None:
            return False
        handler(vector)
        return True
