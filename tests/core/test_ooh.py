"""Tests for the OoH module/lib: SPML and EPML attachments."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.clock import World
from repro.core.costs import (
    EV_HC_INIT_PML,
    EV_HC_INIT_PML_SHADOW,
    EV_REVERSE_MAP,
    EV_SELF_IPI,
    EV_VMWRITE,
)
from repro.core.ooh import OohKind, OohLib, OohModule
from repro.errors import TrackingError


@pytest.fixture()
def ooh(stack):
    module = OohModule(stack.kernel, ring_capacity=4096)
    return OohLib(module)


def spawn_tracked(stack, n_pages=64):
    proc = stack.kernel.spawn("tracked", n_pages=n_pages)
    proc.space.add_vma(n_pages)
    return proc


def test_spml_attach_collect_detach(stack, ooh):
    proc = spawn_tracked(stack)
    att = ooh.attach(proc, OohKind.SPML)
    assert stack.clock.event_count(EV_HC_INIT_PML) == 1
    stack.kernel.access(proc, np.arange(10), True)
    vpns = ooh.fetch(att)
    assert set(int(v) for v in vpns) == set(range(10))
    assert stack.clock.event_count(EV_REVERSE_MAP) == 10
    ooh.detach(att)
    with pytest.raises(TrackingError):
        ooh.fetch(att)


def test_spml_rearms_between_collections(stack, ooh):
    proc = spawn_tracked(stack)
    att = ooh.attach(proc, OohKind.SPML)
    stack.kernel.access(proc, [0, 1], True)
    first = ooh.fetch(att)
    assert set(first) == {0, 1}
    # No new writes: nothing to report.
    assert ooh.fetch(att).size == 0
    # Rewriting the same pages logs them again (EPT dirty bits re-armed).
    stack.kernel.access(proc, [1], True)
    assert set(ooh.fetch(att)) == {1}


def test_spml_sched_switch_costs_hypercalls(stack, ooh):
    proc = spawn_tracked(stack)
    att = ooh.attach(proc, OohKind.SPML)
    exits_before = stack.vm.vcpu.n_vmexits
    stack.kernel.compute(proc, 50_000.0)  # exactly one switch pair
    # disable_logging + enable_logging hypercalls = 2 vmexits.
    assert stack.vm.vcpu.n_vmexits == exits_before + 2
    ooh.detach(att)


def test_epml_sched_switch_uses_vmwrites_not_vmexits(stack, ooh):
    proc = spawn_tracked(stack)
    att = ooh.attach(proc, OohKind.EPML)
    exits_before = stack.vm.vcpu.n_vmexits
    writes_before = stack.clock.event_count(EV_VMWRITE)
    stack.kernel.compute(proc, 50_000.0)
    assert stack.vm.vcpu.n_vmexits == exits_before  # zero vmexits
    assert stack.clock.event_count(EV_VMWRITE) == writes_before + 2
    ooh.detach(att)


def test_epml_attach_collect(stack, ooh):
    proc = spawn_tracked(stack)
    att = ooh.attach(proc, OohKind.EPML)
    assert stack.clock.event_count(EV_HC_INIT_PML_SHADOW) == 1
    stack.kernel.access(proc, np.arange(12), True)
    vpns = ooh.fetch(att)
    assert set(int(v) for v in vpns) == set(range(12))
    # EPML logs GVAs: no reverse mapping happened.
    assert stack.clock.event_count(EV_REVERSE_MAP) == 0
    ooh.detach(att)


def test_epml_rearms_via_pte_dirty(stack, ooh):
    proc = spawn_tracked(stack)
    att = ooh.attach(proc, OohKind.EPML)
    stack.kernel.access(proc, [3], True)
    assert set(ooh.fetch(att)) == {3}
    assert ooh.fetch(att).size == 0
    stack.kernel.access(proc, [3], True)
    assert set(ooh.fetch(att)) == {3}
    ooh.detach(att)


def test_epml_buffer_full_raises_self_ipi(stack, ooh):
    proc = spawn_tracked(stack, n_pages=2048)
    att = ooh.attach(proc, OohKind.EPML)
    # More writes than the 512-entry guest PML buffer.
    stack.kernel.access(proc, np.arange(1200), True)
    assert stack.clock.event_count(EV_SELF_IPI) >= 2
    assert stack.vm.vcpu.pml.guest.n_full_events >= 2
    vpns = ooh.fetch(att)
    assert vpns.size == 1200  # nothing lost
    assert att.last_stats.dropped == 0
    ooh.detach(att)


def test_epml_no_vmexits_during_monitoring(stack, ooh):
    """EPML's headline property: the hypervisor is off the critical path."""
    proc = spawn_tracked(stack, n_pages=2048)
    att = ooh.attach(proc, OohKind.EPML)
    exits_before = stack.vm.vcpu.n_vmexits
    stack.kernel.access(proc, np.arange(1200), True)
    ooh.fetch(att)
    assert stack.vm.vcpu.n_vmexits == exits_before
    ooh.detach(att)


def test_single_attachment_at_a_time(stack, ooh):
    a = spawn_tracked(stack)
    b = stack.kernel.spawn("other", n_pages=8)
    att = ooh.attach(a, OohKind.SPML)
    with pytest.raises(TrackingError):
        ooh.attach(b, OohKind.EPML)
    ooh.detach(att)
    b.space.add_vma(8)
    att2 = ooh.attach(b, OohKind.EPML)
    ooh.detach(att2)


def test_attach_unknown_process_rejected(stack, ooh):
    proc = spawn_tracked(stack)
    stack.kernel.exit_process(proc)
    with pytest.raises(TrackingError):
        ooh.attach(proc, OohKind.SPML)


def test_reverse_map_cache_rejected_for_epml(stack, ooh):
    """EPML logs GVAs, so a reverse-map cache would be silently unused:
    the bad configuration fails at attach instead."""
    proc = spawn_tracked(stack)
    with pytest.raises(TrackingError, match="SPML only"):
        ooh.attach(proc, OohKind.EPML, reverse_map_cache=True)
    att = ooh.attach(proc, OohKind.SPML, reverse_map_cache=True)
    assert att._rmap_cache is not None
    ooh.detach(att)


def test_spml_only_logs_while_tracked_scheduled(stack, ooh):
    """Logging is disabled while other processes run (per-process
    granularity via the schedule hooks, challenge C2)."""
    tracked = spawn_tracked(stack)
    other = stack.kernel.spawn("other", n_pages=32)
    other.space.add_vma(32)
    att = ooh.attach(tracked, OohKind.SPML)
    # Simulate tracked being descheduled: fire its sched-out hook.
    stack.kernel.scheduler.switch(tracked)  # out+in; logging re-enabled
    # Manually disable via a forged sched-out-only situation:
    ooh.module._spml_disable(tracked)
    stack.kernel.access(other, np.arange(5), True)
    ooh.module._spml_enable(tracked)
    stack.kernel.access(tracked, [7], True)
    vpns = ooh.fetch(att)
    assert set(int(v) for v in vpns) == {7}
    ooh.detach(att)


def test_tracker_world_charged_for_init(stack, ooh):
    proc = spawn_tracked(stack)
    before = stack.clock.world_us(World.TRACKER)
    att = ooh.attach(proc, OohKind.SPML)
    # ioctl M3 (5651 us) + hypercall M9 (5495 us) at least.
    assert stack.clock.world_us(World.TRACKER) - before >= 11_000
    ooh.detach(att)


@pytest.mark.parametrize("kind", [OohKind.SPML, OohKind.EPML])
def test_detached_ring_freed_without_cyclic_collector(stack, ooh, kind):
    proc = spawn_tracked(stack)
    att = ooh.attach(proc, kind)
    stack.kernel.access(proc, np.arange(10), True)
    ooh.fetch(att)
    ring = weakref.ref(att.ring)
    gc.disable()
    try:
        ooh.detach(att)
        del att
        # Reference counting alone frees the ring (megabytes in a real
        # run): no cycle keeps a detached attachment alive.
        assert ring() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", [OohKind.SPML, OohKind.EPML])
def test_default_capacity_attach_allocates_no_ring_storage(stack, kind):
    """An attach at the default 2^20-entry capacity allocates ring storage
    as entries arrive, not 8 MiB up front (numpy reports its buffers to
    tracemalloc)."""
    lib = OohLib(OohModule(stack.kernel))
    proc = spawn_tracked(stack)
    tracemalloc.start()
    try:
        att = lib.attach(proc, kind)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert att.ring.capacity == 1 << 20
    assert peak < 1 << 20
    lib.detach(att)
