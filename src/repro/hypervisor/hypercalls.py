"""Hypercall numbers and dispatch table.

The OoH prototype adds a handful of hypercalls to Xen (§IV-C/D):

* ``HC_OOH_INIT_PML`` / ``HC_OOH_DEACT_PML`` — SPML setup/teardown: the
  hypervisor configures the vCPU's PML buffer, allocates the shared ring
  buffer, and sets the ``enabled_by_guest`` coordination flag.
* ``HC_OOH_ENABLE_LOGGING`` / ``HC_OOH_DISABLE_LOGGING`` — issued by the
  OoH module at every schedule-in/out of a tracked process; disable also
  copies the residual PML-buffer contents to the ring buffer.
* ``HC_OOH_INIT_PML_SHADOW`` / ``HC_OOH_DEACT_PML_SHADOW`` — EPML's *only*
  runtime hypercalls: configure VMCS shadowing and expose the guest-PML
  fields; everything afterwards is vmwrite on the shadow VMCS.
* ``HC_OOH_RESET_DIRTY`` — clears EPT dirty bits for given GPFNs so a new
  tracking interval re-logs them (harvest re-arm; inferred detail,
  DESIGN.md).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import HypercallError
from repro.faults import injector as finj
from repro.faults.plan import FaultSite
from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = [
    "HC_OOH_INIT_PML",
    "HC_OOH_DEACT_PML",
    "HC_OOH_ENABLE_LOGGING",
    "HC_OOH_DISABLE_LOGGING",
    "HC_OOH_INIT_PML_SHADOW",
    "HC_OOH_DEACT_PML_SHADOW",
    "HC_OOH_RESET_DIRTY",
    "HC_OOH_SPP_INIT",
    "HC_OOH_SPP_PROTECT",
    "HC_OOH_SPP_UNPROTECT",
    "HC_OOH_BALLOON_INFLATE",
    "HC_OOH_BALLOON_DEFLATE",
    "HypercallTable",
]

HC_OOH_INIT_PML = 0x4F01
HC_OOH_DEACT_PML = 0x4F02
HC_OOH_ENABLE_LOGGING = 0x4F03
HC_OOH_DISABLE_LOGGING = 0x4F04
HC_OOH_INIT_PML_SHADOW = 0x4F05
HC_OOH_DEACT_PML_SHADOW = 0x4F06
HC_OOH_RESET_DIRTY = 0x4F07
# OoH for Intel SPP (the paper's §III-D extension).
HC_OOH_SPP_INIT = 0x4F10
HC_OOH_SPP_PROTECT = 0x4F11
HC_OOH_SPP_UNPROTECT = 0x4F12
# Memory economics (fleet overcommit): the guest balloon driver hands
# cold guest frames back to the host (inflate) and asks for them to be
# re-backed on refault (deflate), virtio-balloon style.
HC_OOH_BALLOON_INFLATE = 0x4F20
HC_OOH_BALLOON_DEFLATE = 0x4F21

HypercallHandler = Callable[..., object]


class HypercallTable:
    """Number -> handler registry with dispatch."""

    def __init__(self) -> None:
        self._handlers: dict[int, HypercallHandler] = {}

    def register(self, nr: int, handler: HypercallHandler) -> None:
        if nr in self._handlers:
            raise HypercallError(f"hypercall {nr:#x} already registered")
        self._handlers[nr] = handler

    def dispatch(self, nr: int, args: tuple, vcpu_id: int = 0) -> object:
        """Call ``nr``'s handler with ``args``; ``vcpu_id`` names the
        issuing vCPU in the trace (SMP runs show which vCPU called)."""
        if finj.ACTIVE is not None and finj.ACTIVE.should_fire(
            FaultSite.HYPERCALL_TRANSIENT
        ):
            if otr.ACTIVE is not None:
                otr.ACTIVE.emit(
                    EventKind.HYPERCALL,
                    nr=f"{nr:#x}",
                    outcome="eagain",
                    vcpu_id=vcpu_id,
                )
            # The guest already paid the hypercall entry cost; the call
            # bounces with a retryable errno, exactly like Xen's -EAGAIN.
            raise HypercallError(
                f"transient failure dispatching hypercall {nr:#x} (injected)",
                code="EAGAIN",
            )
        handler = self._handlers.get(nr)
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.HYPERCALL,
                nr=f"{nr:#x}",
                outcome="dispatched" if handler is not None else "unknown",
                vcpu_id=vcpu_id,
            )
        if handler is None:
            raise HypercallError(f"unknown hypercall {nr:#x}")
        return handler(*args)

    def __contains__(self, nr: int) -> bool:
        return nr in self._handlers
