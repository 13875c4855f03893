"""Virtual CPU: VMX modes, vmexit dispatch, vmread/vmwrite enforcement.

Models the VT-x behaviours the paper leans on (§II):

* two orthogonal execution modes, VMX **root** (hypervisor) and
  **non-root** (guest);
* vmexits: synchronous traps from non-root to root mode, each charged a
  round-trip cost and dispatched to a hypervisor-installed handler;
* hypercalls: guest-initiated vmexits with a dispatch number;
* vmread/vmwrite: allowed freely in root mode; in non-root mode only when
  VMCS shadowing is on *and* the field is exposed in the shadow bitmaps —
  in which case the access hits the shadow VMCS with **no vmexit** (the
  property EPML exploits);
* the EPML ISA extension: a non-root vmwrite to ``GUEST_PML_ADDRESS``
  translates the guest-supplied GPA to an HPA through the EPT before
  storing it (paper §IV-D).
"""

from __future__ import annotations

import enum
from typing import Callable

from repro.core.clock import SimClock, World
from repro.core.costs import (
    EV_HYPERCALL,
    EV_VMEXIT,
    EV_VMREAD,
    EV_VMWRITE,
    CostModel,
)
from repro.errors import VmcsError
from repro.faults import injector as finj
from repro.faults.plan import FaultSite
from repro.hw import vmcs as vm
from repro.hw.ept import Ept
from repro.hw.interrupts import InterruptController
from repro.hw.pml import PmlCircuit
from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = ["CpuMode", "ExitReason", "Vcpu"]


class CpuMode(enum.Enum):
    VMX_ROOT = "vmx_root"
    VMX_NON_ROOT = "vmx_non_root"


class ExitReason(enum.Enum):
    HYPERCALL = "hypercall"
    PML_FULL = "pml_full"
    EPT_VIOLATION = "ept_violation"
    SPP_VIOLATION = "spp_violation"
    EXTERNAL = "external"


ExitHandler = Callable[["Vcpu", object], object]


class Vcpu:
    """One virtual CPU belonging to a VM."""

    def __init__(
        self,
        vcpu_id: int,
        clock: SimClock,
        costs: CostModel,
        pml_capacity: int = 512,
    ) -> None:
        self.vcpu_id = vcpu_id
        self.clock = clock
        self.costs = costs
        self.mode = CpuMode.VMX_NON_ROOT  # guest running by default
        self.vmcs = vm.Vmcs(name=f"vmcs{vcpu_id}")
        self.pml = PmlCircuit(self.vmcs, capacity=pml_capacity, vcpu_id=vcpu_id)
        self.interrupts = InterruptController(clock, costs, vcpu_id=vcpu_id)
        self.ept: Ept | None = None  # set by the owning VM
        #: The owning VM's name (Xen's ``v->domain``), set by the VM; a
        #: name rather than a reference, so the vCPU does not hold its VM.
        self.domain: str | None = None
        self._exit_handlers: dict[ExitReason, ExitHandler] = {}
        self.n_vmexits = 0
        #: PML-full vmexits swallowed by fault injection (batch vanished).
        self.n_dropped_vmexits = 0

    # ------------------------------------------------------------------
    # vmexit machinery
    # ------------------------------------------------------------------
    def install_exit_handler(self, reason: ExitReason, handler: ExitHandler) -> None:
        self._exit_handlers[reason] = handler

    def vmexit(self, reason: ExitReason, payload: object = None) -> object:
        """Trap to root mode, run the handler, resume non-root mode."""
        if (
            finj.ACTIVE is not None
            and reason is ExitReason.PML_FULL
            and finj.ACTIVE.should_fire(FaultSite.VMEXIT_DROP)
        ):
            # Delivery failure: no root-mode transition happens, so no
            # cost is charged and the handler never sees the batch.
            self.n_dropped_vmexits += 1
            return None
        handler = self._exit_handlers.get(reason)
        if handler is None:
            raise VmcsError(f"no handler installed for vmexit {reason}")
        self.n_vmexits += 1
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.VMEXIT, reason=reason.value, vcpu_id=self.vcpu_id
            )
        self.clock.charge(
            self.costs.params.vmexit_roundtrip_us,
            World.HYPERVISOR,
            EV_VMEXIT,
        )
        prev = self.mode
        self.mode = CpuMode.VMX_ROOT
        try:
            return handler(self, payload)
        finally:
            self.mode = prev

    def hypercall(self, nr: int, *args: object) -> object:
        """Guest-initiated vmexit with a dispatch number."""
        self.clock.charge(
            self.costs.params.hypercall_entry_us, World.HYPERVISOR, EV_HYPERCALL
        )
        return self.vmexit(ExitReason.HYPERCALL, (nr, args))

    # ------------------------------------------------------------------
    # vmread / vmwrite
    # ------------------------------------------------------------------
    def _charge_vmrw(self, event: str, us: float) -> None:
        world = (
            World.HYPERVISOR if self.mode is CpuMode.VMX_ROOT else World.KERNEL
        )
        self.clock.charge(us, world, event)

    def vmread(self, field: str) -> int:
        self._charge_vmrw(EV_VMREAD, self.costs.params.vmread_us)
        if self.mode is CpuMode.VMX_ROOT:
            return self.vmcs.read(field)
        if not self.vmcs.shadowing_enabled():
            raise VmcsError("vmread in non-root mode without VMCS shadowing")
        if field not in self.vmcs.shadow_read_fields:
            raise VmcsError(f"field {field!r} not exposed for shadow vmread")
        assert self.vmcs.link is not None
        return self.vmcs.link.read(field)

    def vmwrite(self, field: str, value: int) -> None:
        self._charge_vmrw(EV_VMWRITE, self.costs.params.vmwrite_us)
        if self.mode is CpuMode.VMX_ROOT:
            self.vmcs.write(field, value)
            return
        if not self.vmcs.shadowing_enabled():
            raise VmcsError("vmwrite in non-root mode without VMCS shadowing")
        if field not in self.vmcs.shadow_write_fields:
            raise VmcsError(f"field {field!r} not exposed for shadow vmwrite")
        assert self.vmcs.link is not None
        if field == vm.F_GUEST_PML_ADDRESS:
            # EPML ISA extension: the CPU translates the guest-supplied
            # GPA to an HPA through the EPT before storing it, so the
            # logging datapath writes to the right RAM location.
            if self.ept is None:
                raise VmcsError("EPML vmwrite requires an EPT")
            value = int(self.ept.translate([value])[0])
        self.vmcs.link.write(field, value)
