"""Xen-like hypervisor: VM lifecycle, PML management, OoH hypercalls.

Responsibilities reproduced from the paper's Xen patch (§IV, Table II):

* owns host physical memory and creates VMs (EPT pre-populated);
* handles the PML-full vmexit: drains the vCPU's PML buffer into the
  SPML ring buffer (if ``enabled_by_guest``) and/or its own dirty log
  (if ``enabled_by_hyp`` — live migration), charging the per-entry copy;
* implements the OoH hypercalls (SPML setup/logging toggles, EPML VMCS-
  shadowing setup, dirty-bit re-arm);
* coordinates guest and hypervisor uses of PML through the
  ``enabled_by_guest`` / ``enabled_by_hyp`` flags: deactivation by one
  side leaves PML running if the other side still needs it.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.clock import SimClock, World
from repro.core.costs import (
    EV_BALLOON_PAGE,
    EV_PML_FULL_VMEXIT,
    EV_RB_COPY,
    CostModel,
)
from repro.core.ringbuffer import RingBuffer
from repro.errors import ConfigurationError, HypercallError
from repro.hw import vmcs as vmcsf
from repro.hw.cpu import ExitReason, Vcpu
from repro.hw.memory import PhysicalMemory
from repro.hw.pageset import unique_pages
from repro.hypervisor import hypercalls as hc
from repro.hypervisor.vm import Vm

__all__ = ["Hypervisor"]


class Hypervisor:
    """The VMX-root-mode software layer."""

    def __init__(
        self,
        clock: SimClock,
        costs: CostModel | None = None,
        host_mem_mb: float = 16 * 1024,
    ) -> None:
        self.clock = clock
        self.costs = costs if costs is not None else CostModel()
        self.host_mem = PhysicalMemory(Vm.mb(host_mem_mb))
        #: Live VMs by name.  Each VM owns this hypervisor (its vCPUs'
        #: exit handlers are bound to it), so the registry holds the VMs
        #: weakly: a dropped VM is freed by reference counting.
        self.vms: weakref.WeakValueDictionary[str, Vm] = (
            weakref.WeakValueDictionary()
        )
        self.hypercall_table = hc.HypercallTable()
        self._register_hypercalls()

    # ------------------------------------------------------------------
    # VM lifecycle
    # ------------------------------------------------------------------
    def create_vm(
        self,
        name: str,
        mem_mb: float,
        pml_buffer_entries: int = 512,
        n_vcpus: int = 1,
    ) -> Vm:
        if name in self.vms:
            raise ConfigurationError(f"VM {name!r} already exists")
        vm = Vm(
            name=name,
            mem_pages=Vm.mb(mem_mb),
            host_mem=self.host_mem,
            clock=self.clock,
            costs=self.costs,
            pml_buffer_entries=pml_buffer_entries,
            n_vcpus=n_vcpus,
        )
        for vc in vm.vcpus:
            vc.install_exit_handler(ExitReason.PML_FULL, self._on_pml_full)
            vc.install_exit_handler(ExitReason.HYPERCALL, self._on_hypercall)
            vc.install_exit_handler(
                ExitReason.SPP_VIOLATION, self._on_spp_violation
            )
            vc.pml.hyp.on_full = self._make_pml_full_trampoline(vc)
        self.vms[name] = vm
        return vm

    def destroy_vm(self, name: str) -> None:
        vm = self.vms.pop(name)
        # Return the VM's host frames.
        self.host_mem.free(vm.ept.hpfn[vm.ept.hpfn >= 0])

    def _vm_of(self, vcpu: Vcpu) -> Vm:
        vm = self.vms.get(vcpu.domain)
        if vm is None or not any(vc is vcpu for vc in vm.vcpus):
            raise ConfigurationError("vCPU does not belong to any VM")
        return vm

    # ------------------------------------------------------------------
    # PML-full vmexit path
    # ------------------------------------------------------------------
    @staticmethod
    def _make_pml_full_trampoline(vcpu: Vcpu):
        # The trampoline sits on the vCPU's own PML circuit: it reaches
        # the vCPU weakly so the vCPU is not part of a cycle.
        vcpu_ref = weakref.ref(vcpu)

        def trampoline(entries: np.ndarray) -> None:
            # The CPU raises the vmexit *on the vCPU whose buffer filled*;
            # the handler receives the drained buffer as payload.
            vcpu_ref().vmexit(ExitReason.PML_FULL, entries)

        return trampoline

    def _on_pml_full(self, vcpu: Vcpu, payload: object) -> None:
        vm = self._vm_of(vcpu)
        entries = np.asarray(payload, dtype=np.uint64)
        self.clock.count_only(EV_PML_FULL_VMEXIT)
        self._deliver_gpas(vm, entries, source=vcpu.vcpu_id)

    def _deliver_gpas(
        self, vm: Vm, entries: np.ndarray, source: int | None = None
    ) -> None:
        """Copy harvested GPAs to their consumer(s), charging the copy.

        ``source`` is the vCPU id whose PML buffer produced the entries
        (ring-buffer per-source accounting for SMP merge assertions).
        """
        if entries.size == 0:
            return
        if vm.enabled_by_guest and vm.spml_ring is not None:
            us = self.costs.rb_copy_us(int(entries.size), vm.mem_pages)
            self.clock.charge(us, World.HYPERVISOR, EV_RB_COPY, int(entries.size))
            vm.spml_ring.push(entries, source=source)
        if vm.enabled_by_hyp:
            vm.hyp_dirty_log.append(entries.copy())

    # ------------------------------------------------------------------
    # hypervisor's own use of PML (live migration)
    # ------------------------------------------------------------------
    def enable_vm_dirty_logging(self, vm: Vm) -> None:
        """Start whole-VM dirty logging (pre-copy rounds)."""
        vm.enabled_by_hyp = True
        vm.configure_hyp_pml()
        for vc in vm.vcpus:
            vc.vmcs.write(vmcsf.F_CTRL_ENABLE_PML, 1)

    def disable_vm_dirty_logging(self, vm: Vm) -> None:
        """Stop the hypervisor's use; PML stays on if the guest needs it
        (coordination rule, paper §IV-C item 3)."""
        vm.enabled_by_hyp = False
        vm.hyp_pml_off(by_guest=False)

    def harvest_vm_dirty(self, vm: Vm) -> np.ndarray:
        """Drain residual PML buffers + accumulated log; re-arm dirty bits.

        SMP: residual buffers drain in ascending vCPU id — a fixed merge
        order, so harvests are deterministic for a given write history.
        """
        for vc in vm.vcpus:
            residual = vc.pml.hyp.drain()
            self._deliver_gpas(vm, residual, source=vc.vcpu_id)
        dirty = unique_pages(vm.drain_hyp_dirty_log(), vm.ept.n_guest_frames)
        if dirty.size:
            vm.ept.clear_dirty(dirty)
        return dirty.astype(np.uint64)

    # ------------------------------------------------------------------
    # OoH hypercalls
    # ------------------------------------------------------------------
    def _on_hypercall(self, vcpu: Vcpu, payload: object) -> object:
        nr, args = payload  # type: ignore[misc]
        return self.hypercall_table.dispatch(
            int(nr), (self, vcpu, *args), vcpu.vcpu_id
        )

    def _register_hypercalls(self) -> None:
        # Unbound functions, called with the hypervisor as first argument:
        # the table is the hypervisor's and must not hold it back.
        t = self.hypercall_table
        cls = type(self)
        t.register(hc.HC_OOH_INIT_PML, cls._hc_init_pml)
        t.register(hc.HC_OOH_DEACT_PML, cls._hc_deact_pml)
        t.register(hc.HC_OOH_ENABLE_LOGGING, cls._hc_enable_logging)
        t.register(hc.HC_OOH_DISABLE_LOGGING, cls._hc_disable_logging)
        t.register(hc.HC_OOH_INIT_PML_SHADOW, cls._hc_init_pml_shadow)
        t.register(hc.HC_OOH_DEACT_PML_SHADOW, cls._hc_deact_pml_shadow)
        t.register(hc.HC_OOH_RESET_DIRTY, cls._hc_reset_dirty)
        t.register(hc.HC_OOH_SPP_INIT, cls._hc_spp_init)
        t.register(hc.HC_OOH_SPP_PROTECT, cls._hc_spp_protect)
        t.register(hc.HC_OOH_SPP_UNPROTECT, cls._hc_spp_unprotect)
        t.register(hc.HC_OOH_BALLOON_INFLATE, cls._hc_balloon_inflate)
        t.register(hc.HC_OOH_BALLOON_DEFLATE, cls._hc_balloon_deflate)

    # -- SPML ---------------------------------------------------------
    def _hc_init_pml(self, vcpu: Vcpu, ring_capacity: int) -> RingBuffer:
        """SPML init: PML buffer + shared ring buffer; guest flag set.

        Returns the ring buffer, which in real OoH lives in guest memory
        and is mapped into the tracker's address space by the OoH module
        (paper §V: allocated in the guest's address space, not the
        hypervisor's) — hence the guest chooses its capacity.
        """
        vm = self._vm_of(vcpu)
        if vm.enabled_by_guest:
            raise HypercallError("SPML already initialised for this VM")
        vm.configure_hyp_pml()
        vm.spml_ring = RingBuffer(int(ring_capacity))
        vm.enabled_by_guest = True
        # Arm logging: PML only records dirty-bit 0 -> 1 transitions, so
        # init clears the EPT dirty bits (as Xen does between migration
        # rounds).
        vm.ept.clear_dirty()
        # Logging itself starts at the first enable_logging (schedule-in).
        return vm.spml_ring

    def _hc_deact_pml(self, vcpu: Vcpu) -> None:
        vm = self._vm_of(vcpu)
        vm.enabled_by_guest = False
        vm.hyp_pml_off(by_guest=True)
        vm.spml_ring = None

    def _hc_enable_logging(self, vcpu: Vcpu) -> None:
        """Tracked process scheduled in: resume logging.

        Acts on the *issuing* vCPU — the one the tracked process was just
        scheduled in on; the other vCPUs run untracked work and need no
        logging (paper §IV-C: logging follows the tracked process).
        """
        vm = self._vm_of(vcpu)
        if not vm.enabled_by_guest:
            raise HypercallError("enable_logging without SPML init")
        vcpu.vmcs.write(vmcsf.F_CTRL_ENABLE_PML, 1)

    def _hc_disable_logging(self, vcpu: Vcpu) -> None:
        """Tracked process scheduled out: drain the issuing vCPU's buffer,
        pause its logging."""
        vm = self._vm_of(vcpu)
        if not vm.enabled_by_guest:
            raise HypercallError("disable_logging without SPML init")
        entries = vcpu.pml.hyp.drain()
        self._deliver_gpas(vm, entries, source=vcpu.vcpu_id)
        vm.hyp_pml_off(by_guest=True, vcpus=[vcpu])

    # -- EPML -----------------------------------------------------------
    def _hc_init_pml_shadow(self, vcpu: Vcpu) -> None:
        """EPML init: VMCS shadowing + guest-PML field exposure.

        This is EPML's only hypercall (paper §IV-D); afterwards the guest
        drives logging itself with vmwrite on the shadow VMCS.  SMP: one
        hypercall configures shadowing on every vCPU of the VM (the OoH
        module needs a guest-level buffer wherever the tracked process may
        run), mirroring a for_each_vcpu loop in the real Xen patch.
        """
        vm = self._vm_of(vcpu)
        for vc in vm.vcpus:
            if vc.vmcs.link is None:
                shadow = vmcsf.Vmcs(name=f"{vc.vmcs.name}-shadow", is_shadow=True)
                vc.vmcs.link_shadow(shadow)
            vc.vmcs.write(vmcsf.F_CTRL_ENABLE_VMCS_SHADOWING, 1)
            vc.vmcs.expose_to_guest(
                {
                    vmcsf.F_CTRL_ENABLE_GUEST_PML,
                    vmcsf.F_GUEST_PML_ADDRESS,
                    vmcsf.F_GUEST_PML_INDEX,
                }
            )

    def _hc_deact_pml_shadow(self, vcpu: Vcpu) -> None:
        vm = self._vm_of(vcpu)
        for vc in vm.vcpus:
            if vc.vmcs.link is not None:
                vc.vmcs.link.write(vmcsf.F_CTRL_ENABLE_GUEST_PML, 0)
            vc.vmcs.write(vmcsf.F_CTRL_ENABLE_VMCS_SHADOWING, 0)

    # -- shared ----------------------------------------------------------
    def _hc_reset_dirty(self, vcpu: Vcpu, gpfns: np.ndarray) -> int:
        """Clear EPT dirty bits so a new tracking interval re-logs them."""
        vm = self._vm_of(vcpu)
        g = np.asarray(gpfns, dtype=np.int64)
        return vm.ept.clear_dirty(g)

    # -- balloon (fleet memory economics) ---------------------------------
    def _hc_balloon_inflate(self, vcpu: Vcpu, gpfns: np.ndarray) -> int:
        """Guest hands cold frames to the host: EPT-unmap the GPFNs and
        return their host frames to the pool.  Unmapped entries lose all
        flags, so a later deflate re-maps with clean A/D bits and PML
        re-logs the first post-refault write."""
        vm = self._vm_of(vcpu)
        g = np.asarray(gpfns, dtype=np.int64).ravel()
        if g.size == 0:
            return 0
        hpfns = vm.ept.unmap(g)
        self.host_mem.free(hpfns)
        self.clock.charge(
            g.size * self.costs.params.balloon_page_us,
            World.HYPERVISOR,
            EV_BALLOON_PAGE,
            int(g.size),
        )
        return int(g.size)

    def _hc_balloon_deflate(self, vcpu: Vcpu, gpfns: np.ndarray) -> int:
        """Re-back ballooned GPFNs with fresh host frames (refault path).

        Raises :class:`~repro.errors.OutOfFramesError` when the host pool
        is genuinely exhausted — the caller's reclaim controller must free
        frames elsewhere first — and the injectable ``FRAME_EXHAUSTION``
        fault site makes the allocation transiently fail under chaos.
        """
        vm = self._vm_of(vcpu)
        g = np.asarray(gpfns, dtype=np.int64).ravel()
        if g.size == 0:
            return 0
        if np.any(vm.ept.hpfn[g] >= 0):
            raise HypercallError("balloon deflate of a mapped GPFN")
        hpfns = self.host_mem.alloc(int(g.size))
        vm.ept.map(g, hpfns)
        self.clock.charge(
            g.size * self.costs.params.balloon_page_us,
            World.HYPERVISOR,
            EV_BALLOON_PAGE,
            int(g.size),
        )
        return int(g.size)

    def _on_spp_violation(self, vcpu: Vcpu, payload: object) -> None:
        """SPP-induced vmexit: notify the guest with a virtual interrupt
        (the guest's OoH-SPP handler reads the violation record)."""
        from repro.hw.interrupts import VECTOR_OOH_SPP_VIOLATION

        vm = self._vm_of(vcpu)
        vm.last_spp_violation = payload  # (pid, vpn, subpage)
        vcpu.interrupts.inject_virtual(VECTOR_OOH_SPP_VIOLATION)

    # -- OoH-SPP (paper §III-D extension) ---------------------------------
    def _hc_spp_init(self, vcpu: Vcpu):
        """Enable sub-page write permissions for this VM."""
        from repro.hw.spp import SppTable

        vm = self._vm_of(vcpu)
        if vm.spp is None:
            vm.spp = SppTable(vm.mem_pages)
        return vm.spp

    def _hc_spp_protect(self, vcpu: Vcpu, gpfn: int, write_vector: int) -> None:
        vm = self._vm_of(vcpu)
        if vm.spp is None:
            raise HypercallError("SPP protect before SPP init")
        vm.spp.protect(int(gpfn), int(write_vector))

    def _hc_spp_unprotect(self, vcpu: Vcpu, gpfn: int) -> None:
        vm = self._vm_of(vcpu)
        if vm.spp is None:
            raise HypercallError("SPP unprotect before SPP init")
        vm.spp.unprotect(int(gpfn))
