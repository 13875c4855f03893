"""End-to-end recovery: the OoH module heals injected faults and reports
how (retries, resyncs, recovered IPIs, surfaced loss counters)."""

import numpy as np

from repro.core.ooh import OohKind, OohLib, OohModule
from repro.core.tracking import Technique, make_tracker
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec


def _plan(site, rate=1.0, **kw):
    return FaultPlan([FaultSpec(site, rate, **kw)])


def _spawn(stack, n_pages=1024):
    proc = stack.kernel.spawn("app", n_pages=n_pages)
    proc.space.add_vma(n_pages)
    stack.kernel.access(proc, np.arange(n_pages), True)  # prefault
    return proc


def test_epml_lost_ipi_batches_swept_at_collect(stack):
    proc = _spawn(stack)
    tracker = make_tracker(Technique.EPML, stack.kernel, proc)
    tracker.start()
    # 1024 writes fill the 512-entry guest buffer twice; both buffer-full
    # self-IPIs are lost, so the batches pile up undelivered.
    with _plan(FaultSite.LOST_SELF_IPI).active():
        stack.kernel.access(proc, np.arange(1024), True)
    assert stack.vm.vcpu.interrupts.n_lost == 2
    got = tracker.collect()
    stats = tracker.last_stats
    assert stats.n_recovered_ipis == 2
    assert set(got.tolist()) == set(range(1024))  # nothing lost
    tracker.stop()


def test_epml_delayed_ipi_flushed_at_collect(stack):
    proc = _spawn(stack)
    tracker = make_tracker(Technique.EPML, stack.kernel, proc)
    tracker.start()
    with _plan(FaultSite.DELAYED_SELF_IPI).active():
        stack.kernel.access(proc, np.arange(1024), True)
    assert stack.vm.vcpu.interrupts.n_delayed == 2
    got = tracker.collect()
    assert set(got.tolist()) == set(range(1024))
    tracker.stop()


def test_spml_transient_hypercalls_retried(stack):
    proc = _spawn(stack, n_pages=256)
    tracker = make_tracker(Technique.SPML, stack.kernel, proc)
    tracker.start()
    stack.kernel.access(proc, np.arange(64), True)
    # The collect path's first hypercall (disable_logging) bounces twice
    # with EAGAIN; the module's retrier absorbs both.
    with _plan(FaultSite.HYPERCALL_TRANSIENT, max_fires=2).active():
        got = tracker.collect()
    stats = tracker.last_stats
    assert stats.n_retries == 2
    assert set(got.tolist()) == set(range(64))
    tracker.stop()


def test_spml_undersized_ring_conservative_resync(stack):
    proc = _spawn(stack)
    module = OohModule(stack.kernel, ring_capacity=64)
    lib = OohLib(module)
    att = lib.attach(proc, OohKind.SPML, resync_on_loss=True)
    stack.kernel.access(proc, np.arange(1024), True)  # overflows the ring
    got = lib.fetch(att)
    stats = att.last_stats
    assert stats.dropped > 0
    assert stats.n_resyncs == 1 and stats.resynced
    # The conservative resync folds in every mapped page: complete capture.
    assert set(range(1024)) <= set(got.tolist())
    lib.detach(att)


def test_spml_dropped_vmexit_surfaced_and_resynced(stack):
    proc = _spawn(stack)
    tracker = make_tracker(
        Technique.SPML, stack.kernel, proc, resync_on_loss=True
    )
    tracker.start()
    # One PML-full vmexit is swallowed: its 512-entry batch vanishes
    # before reaching the ring.
    with _plan(FaultSite.VMEXIT_DROP, max_fires=1).active():
        stack.kernel.access(proc, np.arange(1024), True)
    got = tracker.collect()
    stats = tracker.last_stats
    assert stats.n_lost_vmexits == 1
    assert stats.n_resyncs == 1
    assert set(range(1024)) <= set(got.tolist())
    tracker.stop()


def test_demand_paging_retries_transient_frame_exhaustion(stack):
    proc = stack.kernel.spawn("app", n_pages=256)
    proc.space.add_vma(256)
    with _plan(FaultSite.FRAME_EXHAUSTION, max_fires=1).active():
        stack.kernel.access(proc, np.arange(16), True)
    handler = stack.kernel.fault_handler(proc)
    assert handler.n_alloc_retries >= 1
    assert proc.space.pt.mapped_vpns().size == 16


def test_spml_loss_counter_is_the_vms_hypervisor_level_loss(stack):
    """SPML logs through the hypervisor-level circuit, so its loss
    counter is the ring's drops plus the VM's one hypervisor-level count:
    a dropped entry and a swallowed PML-full vmexit each trigger a
    resync, and the VM's count sums both."""
    proc = _spawn(stack)
    module = OohModule(stack.kernel)
    lib = OohLib(module)
    att = lib.attach(proc, OohKind.SPML, resync_on_loss=True)
    plan = FaultPlan([FaultSpec(FaultSite.PML_ENTRY_DROP, 1.0, max_fires=3),
                      FaultSpec(FaultSite.VMEXIT_DROP, 1.0, max_fires=1)])
    with plan.active():
        stack.kernel.access(proc, np.arange(1024), True)
    hyp = stack.vm.vcpu.pml.hyp
    assert (hyp.n_injected_drops, stack.vm.vcpu.n_dropped_vmexits) == (3, 1)
    assert stack.vm.hyp_log_losses() == 3 + hyp.n_dropped + 1
    assert module._loss_counter(att) == (
        att.ring.total_dropped + stack.vm.hyp_log_losses())
    got = lib.fetch(att)
    assert att.last_stats.n_resyncs == 1
    assert set(range(1024)) <= set(got.tolist())
    lib.detach(att)
