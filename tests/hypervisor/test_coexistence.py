"""Regression tests: hypervisor and guest PML users coexisting.

Guards the VMCS-routing bug where linking a shadow VMCS (EPML) silently
re-routed the hypervisor-owned ``ENABLE_PML`` control to the shadow,
disabling hypervisor-level dirty logging during live migration.
"""

import numpy as np

from repro.core.tracking import Technique, make_tracker
from repro.hw import vmcs as vmcsf
from repro.hypervisor.migration import LiveMigration


def test_hyp_logging_survives_epml_shadow_link(stack):
    vm = stack.vm
    proc = stack.kernel.spawn("app", n_pages=64)
    proc.space.add_vma(64)
    stack.kernel.access(proc, np.arange(64), True)

    tracker = make_tracker(Technique.EPML, stack.kernel, proc)
    tracker.start()  # links a shadow VMCS
    assert vm.vcpu.vmcs.link is not None

    stack.hv.enable_vm_dirty_logging(vm)
    assert vm.vcpu.pml.hyp.enabled()  # ordinary-VMCS control, not shadow
    vm.ept.clear_dirty()
    stack.kernel.access(proc, [1, 2, 3], True)
    dirty = stack.hv.harvest_vm_dirty(vm)
    assert dirty.size == 3  # hypervisor saw the writes

    # And the guest-side EPML tracker saw them too.
    assert set(int(v) for v in tracker.collect()) >= {1, 2, 3}
    tracker.stop()
    stack.hv.disable_vm_dirty_logging(vm)


def test_migration_with_concurrent_epml_tracker(stack):
    proc = stack.kernel.spawn("db", n_pages=256)
    proc.space.add_vma(256)
    stack.kernel.access(proc, np.arange(256), True)
    tracker = make_tracker(Technique.EPML, stack.kernel, proc)
    tracker.start()

    state = {"i": 0}

    def round_():
        lo = (state["i"] * 16) % 240
        stack.kernel.access(proc, np.arange(lo, lo + 16), True)
        state["i"] += 1

    report = LiveMigration(
        stack.hv, stack.vm, stop_threshold_pages=32, max_rounds=10
    ).migrate(round_)
    assert report.converged
    # The stop-and-copy round carried the workload's dirty pages.
    assert report.pages_per_round[-1] > 0
    assert tracker.collect().size > 0
    tracker.stop()


def test_spml_guest_flag_does_not_leak_into_hypervisor_log(stack):
    """Without enabled_by_hyp, PML-full content must not reach the
    hypervisor's migration log."""
    vm = stack.vm
    proc = stack.kernel.spawn("app", n_pages=2048)
    proc.space.add_vma(2048)
    tracker = make_tracker(Technique.SPML, stack.kernel, proc)
    tracker.start()
    stack.kernel.access(proc, np.arange(1500), True)  # > one PML buffer
    assert vm.vcpu.pml.hyp.n_full_events >= 1
    assert vm.hyp_dirty_log == []  # enabled_by_hyp never set
    tracker.stop()


def test_shadow_vmcs_index_fields_separate(stack):
    """Guest PML index lives in the shadow; hypervisor index in the
    ordinary VMCS."""
    vm = stack.vm
    proc = stack.kernel.spawn("app", n_pages=64)
    proc.space.add_vma(64)
    tracker = make_tracker(Technique.EPML, stack.kernel, proc)
    tracker.start()
    stack.kernel.access(proc, np.arange(10), True)
    shadow = vm.vcpu.vmcs.link
    assert shadow is not None
    assert shadow.read(vmcsf.F_GUEST_PML_INDEX) == 511 - 10
    # Ordinary hypervisor-level index untouched (hyp logging off).
    assert vm.vcpu.vmcs.read(vmcsf.F_PML_INDEX) == 511
    tracker.stop()
