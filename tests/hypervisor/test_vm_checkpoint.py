"""Tests for whole-VM checkpointing (the paper's §III-C alternative)."""

import numpy as np
import pytest

from repro.core.tracking import Technique
from repro.errors import CheckpointError
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.hypervisor.vm_checkpoint import checkpoint_vm
from repro.trackers.criu import Criu


def populate(stack, name, n_pages):
    proc = stack.kernel.spawn(name, n_pages=n_pages)
    proc.space.add_vma(n_pages)
    stack.kernel.access(proc, np.arange(n_pages), True)
    return proc


def test_vm_checkpoint_captures_all_allocated_frames(stack):
    populate(stack, "a", 64)
    populate(stack, "b", 64)
    image, report = checkpoint_vm(stack.hv, stack.vm)
    assert report.rounds == 2  # bulk + final
    assert image.total_pages_dumped >= 128


def test_vm_predump_rounds_capture_mutations(stack):
    proc = populate(stack, "a", 64)

    def round_():
        stack.kernel.access(proc, [1, 2], True)

    image, report = checkpoint_vm(stack.hv, stack.vm, round_, predump_rounds=2)
    assert report.rounds == 4
    # Later rounds shrink to the write rate.
    assert report.pages_per_round[1] <= 3
    flat = image.flatten()
    gpfn1 = int(proc.space.pt.translate([1])[0])
    hpfn1 = int(stack.vm.ept.translate([gpfn1])[0])
    assert flat[gpfn1] == int(stack.hv.host_mem.read([hpfn1])[0])


def test_vm_checkpoint_validation(stack):
    with pytest.raises(CheckpointError):
        checkpoint_vm(stack.hv, stack.vm, predump_rounds=1)
    with pytest.raises(CheckpointError):
        checkpoint_vm(stack.hv, stack.vm, predump_rounds=-1)


def test_vm_checkpoint_dumps_colocated_processes_too(stack):
    """The §III-C objection, quantified: with colocated tenants, the VM
    image dwarfs the OoH process checkpoint of the one target process."""
    target = populate(stack, "target", 64)
    for i in range(4):  # colocated functions (the FaaS scenario)
        populate(stack, f"tenant{i}", 256)

    image_vm, _ = checkpoint_vm(stack.hv, stack.vm)
    image_proc, report_proc = Criu(stack.kernel, Technique.EPML).checkpoint(
        target
    )
    assert report_proc.pages_dumped <= 64 + 1
    assert image_vm.total_pages_dumped > 10 * report_proc.pages_dumped


def test_vm_checkpoint_leaves_logging_off(stack):
    populate(stack, "a", 16)
    checkpoint_vm(stack.hv, stack.vm)
    assert not stack.vm.enabled_by_hyp


@pytest.mark.parametrize("site", [FaultSite.VMEXIT_DROP, FaultSite.PML_ENTRY_DROP],
                         ids=lambda s: s.value)
def test_vm_checkpoint_widens_freeze_after_lost_log_entries(stack, site):
    """Hypervisor-level PML entries lost during a pre-dump round could be
    any page, so the freeze dumps every allocated frame again: the image
    holds no stale page."""
    proc = populate(stack, "a", 4096)

    def round_():
        stack.kernel.access(proc, np.arange(0, 4096, 2), True)

    with FaultPlan([FaultSpec(site, 1.0)]).active():
        image, report = checkpoint_vm(stack.hv, stack.vm, round_,
                                      predump_rounds=1)
    allocated = np.nonzero(stack.vm.guest_frames._allocated)[0]
    flat = image.flatten()
    current = stack.hv.host_mem.read(stack.vm.ept.translate(allocated))
    assert [flat[int(g)] for g in allocated] == current.tolist()
    assert report.pages_per_round[-1] == allocated.size
    assert stack.vm.hyp_log_losses() > 0
