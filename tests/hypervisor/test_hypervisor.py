"""Tests for the hypervisor: VM lifecycle, PML handling, hypercalls."""

import numpy as np
import pytest

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.core.ooh import OohKind, OohModule
from repro.errors import ConfigurationError, HypercallError
from repro.hw import vmcs as vmcsf
from repro.hypervisor import hypercalls as hc
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.vm import Vm


def test_create_vm_populates_ept_and_guest_frames(stack):
    vm = stack.vm
    assert vm.mem_pages == Vm.mb(32)
    assert np.all(vm.ept.hpfn[: vm.mem_pages] >= 0)
    assert vm.guest_frames.n_free == vm.mem_pages


def test_duplicate_vm_name_rejected(stack):
    with pytest.raises(ConfigurationError):
        stack.hv.create_vm("vm0", mem_mb=1)


def test_destroy_vm_returns_host_frames(stack):
    free_before = stack.hv.host_mem.allocator.n_free
    vm1 = stack.hv.create_vm("vm1", mem_mb=8)
    stack.hv.destroy_vm("vm1")
    assert stack.hv.host_mem.allocator.n_free == free_before


def test_multiple_vms_get_disjoint_host_frames():
    hv = Hypervisor(SimClock(), CostModel(), host_mem_mb=64)
    a = hv.create_vm("a", mem_mb=16)
    b = hv.create_vm("b", mem_mb=16)
    ha = set(int(x) for x in a.ept.hpfn)
    hb = set(int(x) for x in b.ept.hpfn)
    assert not ha & hb


def test_spml_init_hypercall_sets_flag_and_ring(stack):
    vm = stack.vm
    ring = vm.vcpu.hypercall(hc.HC_OOH_INIT_PML, 4096)
    assert vm.enabled_by_guest
    assert vm.spml_ring is ring
    with pytest.raises(HypercallError):
        vm.vcpu.hypercall(hc.HC_OOH_INIT_PML, 4096)  # double init


def test_enable_logging_requires_init(stack):
    with pytest.raises(HypercallError):
        stack.vm.vcpu.hypercall(hc.HC_OOH_ENABLE_LOGGING)


def test_pml_full_vmexit_copies_to_ring_when_guest_enabled(stack):
    vm = stack.vm
    vm.vcpu.hypercall(hc.HC_OOH_INIT_PML, 4096)
    vm.vcpu.hypercall(hc.HC_OOH_ENABLE_LOGGING)
    n = vm.pml_buffer_entries
    vm.vcpu.pml.log_gpas(np.arange(n + 5, dtype=np.uint64))
    assert vm.vcpu.n_vmexits >= 1  # buffer-full trap
    assert len(vm.spml_ring) == n  # one full buffer copied
    # Residual entries flushed by disable_logging.
    vm.vcpu.hypercall(hc.HC_OOH_DISABLE_LOGGING)
    assert len(vm.spml_ring) == n + 5


def test_pml_not_delivered_without_guest_flag(stack):
    """The coordination flags suppress useless copies (paper §IV-C)."""
    vm = stack.vm
    stack.hv.enable_vm_dirty_logging(vm)  # hypervisor use only
    vm.vcpu.pml.log_gpas(np.arange(vm.pml_buffer_entries, dtype=np.uint64))
    assert vm.spml_ring is None
    assert len(vm.hyp_dirty_log) == 1  # went to the hypervisor log


def test_both_users_receive_entries(stack):
    vm = stack.vm
    stack.hv.enable_vm_dirty_logging(vm)
    vm.vcpu.hypercall(hc.HC_OOH_INIT_PML, 4096)
    vm.vcpu.hypercall(hc.HC_OOH_ENABLE_LOGGING)
    vm.vcpu.pml.log_gpas(np.arange(vm.pml_buffer_entries, dtype=np.uint64))
    assert len(vm.spml_ring) == vm.pml_buffer_entries
    assert len(vm.hyp_dirty_log) == 1


def _deact_by_hypercall(stack):
    stack.vm.vcpu.hypercall(hc.HC_OOH_INIT_PML, 4096)
    stack.vm.vcpu.hypercall(hc.HC_OOH_DEACT_PML)


def _deact_by_force_detach(stack):
    """SPML torn down crash-only, without the deact hypercall."""
    proc = stack.kernel.spawn("tracked", n_pages=8)
    proc.space.add_vma(8)
    module = OohModule.shared(stack.kernel)
    module.attach(proc, OohKind.SPML)
    module.force_detach()


@pytest.mark.parametrize(
    "deact", [_deact_by_hypercall, _deact_by_force_detach],
    ids=["hypercall", "force_detach"],
)
def test_guest_deact_keeps_pml_if_hypervisor_uses_it(stack, deact):
    vm = stack.vm
    stack.hv.enable_vm_dirty_logging(vm)
    deact(stack)
    assert not vm.enabled_by_guest
    assert vm.vcpu.vmcs.read(vmcsf.F_CTRL_ENABLE_PML) == 1
    stack.hv.disable_vm_dirty_logging(vm)
    assert vm.vcpu.vmcs.read(vmcsf.F_CTRL_ENABLE_PML) == 0


def test_hyp_deact_keeps_pml_if_guest_uses_it(stack):
    vm = stack.vm
    vm.vcpu.hypercall(hc.HC_OOH_INIT_PML, 4096)
    vm.vcpu.hypercall(hc.HC_OOH_ENABLE_LOGGING)
    stack.hv.enable_vm_dirty_logging(vm)
    stack.hv.disable_vm_dirty_logging(vm)
    assert vm.vcpu.vmcs.read(vmcsf.F_CTRL_ENABLE_PML) == 1


def test_epml_init_shadow_exposes_fields(stack):
    vm = stack.vm
    vm.vcpu.hypercall(hc.HC_OOH_INIT_PML_SHADOW)
    assert vm.vcpu.vmcs.shadowing_enabled()
    assert vmcsf.F_CTRL_ENABLE_GUEST_PML in vm.vcpu.vmcs.shadow_write_fields
    # Guest can now toggle guest-PML without a vmexit.
    exits_before = vm.vcpu.n_vmexits
    vm.vcpu.vmwrite(vmcsf.F_CTRL_ENABLE_GUEST_PML, 1)
    assert vm.vcpu.n_vmexits == exits_before


def test_epml_deact_shadow(stack):
    vm = stack.vm
    vm.vcpu.hypercall(hc.HC_OOH_INIT_PML_SHADOW)
    vm.vcpu.vmwrite(vmcsf.F_CTRL_ENABLE_GUEST_PML, 1)
    vm.vcpu.hypercall(hc.HC_OOH_DEACT_PML_SHADOW)
    assert not vm.vcpu.vmcs.shadowing_enabled()
    assert vm.vcpu.vmcs.link.read(vmcsf.F_CTRL_ENABLE_GUEST_PML) == 0


def test_reset_dirty_hypercall_rearms(stack):
    vm = stack.vm
    vm.ept.touch(np.array([0, 1, 2]), np.array([True, True, True]))
    n = vm.vcpu.hypercall(hc.HC_OOH_RESET_DIRTY, np.array([0, 1]))
    assert n == 2
    assert list(vm.ept.dirty_gpfns()) == [2]


def test_unknown_hypercall_rejected(stack):
    with pytest.raises(HypercallError):
        stack.vm.vcpu.hypercall(0x9999)


def test_harvest_vm_dirty_unique_and_rearmed(stack):
    vm = stack.vm
    stack.hv.enable_vm_dirty_logging(vm)
    vm.ept.clear_dirty()
    vm.vcpu.pml.log_gpas(np.array([7, 7, 8], dtype=np.uint64))
    vm.ept.touch(np.array([7, 8]), np.array([True, True]))
    dirty = stack.hv.harvest_vm_dirty(vm)
    assert set(int(x) for x in dirty) == {7, 8}
    assert vm.ept.dirty_gpfns().size == 0


def test_harvest_vm_dirty_contract_across_vcpus():
    """The harvest is ``np.unique`` of everything logged on every vCPU
    (full-buffer deliveries and residual buffers alike), as uint64; only
    those GPFNs lose their EPT dirty bit."""
    hv = Hypervisor(SimClock(), CostModel(), host_mem_mb=64)
    vm = hv.create_vm("smp", mem_mb=8, pml_buffer_entries=4, n_vcpus=2)
    hv.enable_vm_dirty_logging(vm)
    logs = [
        np.array([900, 3, 3, 41, 900, 7, 2047], dtype=np.uint64),
        np.array([41, 5, 5, 0, 3], dtype=np.uint64),
    ]
    unlogged = np.array([11, 12, 1500])
    vm.ept.touch(np.concatenate([*logs, unlogged]).astype(np.int64), True)
    for vc, log in zip(vm.vcpus, logs):
        vc.pml.log_gpas(log)

    dirty = hv.harvest_vm_dirty(vm)

    assert dirty.dtype == np.uint64
    assert np.array_equal(dirty, np.unique(np.concatenate(logs)))
    assert np.array_equal(vm.ept.dirty_gpfns(), unlogged)
    # Nothing logged since: an empty uint64 harvest that clears nothing.
    empty = hv.harvest_vm_dirty(vm)
    assert empty.dtype == np.uint64 and empty.size == 0
    assert np.array_equal(vm.ept.dirty_gpfns(), unlogged)
