"""Per-seam injection behaviour: each hooked site fires, is surfaced in a
counter, and leaves the component consistent."""

import numpy as np
import pytest

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.core.ringbuffer import RingBuffer
from repro.errors import HypercallError, TransientError
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.hw import vmcs as vm
from repro.hw.cpu import ExitReason, Vcpu
from repro.hw.interrupts import InterruptController
from repro.hw.memory import FrameAllocator
from repro.hw.pml import PmlCircuit
from repro.hypervisor.hypercalls import HypercallTable


def _plan(site, rate=1.0, **kw):
    return FaultPlan([FaultSpec(site, rate, **kw)])


# ----------------------------------------------------------------------
# ring buffer
# ----------------------------------------------------------------------
def test_ring_overflow_drops_oldest_and_counts():
    ring = RingBuffer(16)
    with _plan(FaultSite.RING_OVERFLOW, max_fires=4).active():
        dropped = ring.push(np.arange(8))
    assert dropped == 4
    assert ring.total_dropped == 4
    # Oldest entries are the ones lost; the survivors stay in order.
    assert ring.pop_all().tolist() == [4, 5, 6, 7]


def test_ring_without_plan_is_lossless():
    ring = RingBuffer(16)
    assert ring.push(np.arange(8)) == 0
    assert ring.total_dropped == 0


# ----------------------------------------------------------------------
# frame allocator
# ----------------------------------------------------------------------
def test_frame_exhaustion_is_transient():
    alloc = FrameAllocator(64)
    with _plan(FaultSite.FRAME_EXHAUSTION, max_fires=1).active():
        with pytest.raises(TransientError):
            alloc.alloc(4)
        frames = alloc.alloc(4)  # budget spent: next attempt succeeds
    assert frames.size == 4
    assert alloc.n_allocated == 4


def test_frame_exhaustion_skips_zero_count():
    alloc = FrameAllocator(64)
    with _plan(FaultSite.FRAME_EXHAUSTION).active() as inj:
        assert alloc.alloc(0).size == 0
    assert inj.total_fires() == 0


# ----------------------------------------------------------------------
# hypercall table
# ----------------------------------------------------------------------
def test_hypercall_transient_bounces_with_eagain():
    table = HypercallTable()
    table.register(0x10, lambda x: x + 1)
    with _plan(FaultSite.HYPERCALL_TRANSIENT, max_fires=1).active():
        with pytest.raises(HypercallError) as ei:
            table.dispatch(0x10, (1,))
        assert ei.value.code == "EAGAIN" and ei.value.transient
        assert table.dispatch(0x10, (1,)) == 2


# ----------------------------------------------------------------------
# interrupt controller
# ----------------------------------------------------------------------
def _controller():
    clock = SimClock()
    ic = InterruptController(clock, CostModel())
    delivered = []
    ic.register(0xEC, delivered.append)
    return clock, ic, delivered


def test_lost_self_ipi_is_swallowed_and_counted():
    clock, ic, delivered = _controller()
    with _plan(FaultSite.LOST_SELF_IPI, max_fires=1).active():
        assert ic.post(0xEC) is False
        assert ic.post(0xEC) is True
    assert ic.n_lost == 1
    assert delivered == [0xEC]


def test_delayed_self_ipi_delivered_on_next_post():
    clock, ic, delivered = _controller()
    with _plan(FaultSite.DELAYED_SELF_IPI, max_fires=1).active():
        assert ic.post(0xEC) is False
        assert delivered == []
        # The next post flushes the deferred vector first.
        assert ic.post(0xEC) is True
    assert ic.n_delayed == 1
    assert delivered == [0xEC, 0xEC]


def test_flush_delayed_explicitly():
    clock, ic, delivered = _controller()
    with _plan(FaultSite.DELAYED_SELF_IPI, max_fires=1).active():
        ic.post(0xEC)
        assert ic.flush_delayed() == 1
    assert delivered == [0xEC]
    assert ic.flush_delayed() == 0


# ----------------------------------------------------------------------
# PML circuit
# ----------------------------------------------------------------------
def test_pml_entry_drop_counted_per_buffer():
    vmcs = vm.Vmcs()
    circuit = PmlCircuit(vmcs, capacity=512)
    circuit.hyp.configure()
    vmcs.write(vm.F_CTRL_ENABLE_PML, 1)
    with _plan(FaultSite.PML_ENTRY_DROP, max_fires=3).active():
        circuit.log_gpas(np.arange(8, dtype=np.uint64))
    assert circuit.hyp.n_injected_drops == 3
    assert circuit.hyp.n_logged == 5
    assert circuit.hyp.buffer.n_logged == 5


# ----------------------------------------------------------------------
# vmexit delivery
# ----------------------------------------------------------------------
def test_vmexit_drop_swallows_pml_full_only():
    clock = SimClock()
    vcpu = Vcpu(0, clock, CostModel())
    seen = []
    vcpu.install_exit_handler(
        ExitReason.PML_FULL, lambda v, payload: seen.append(payload)
    )
    vcpu.install_exit_handler(
        ExitReason.HYPERCALL, lambda v, payload: "handled"
    )
    with _plan(FaultSite.VMEXIT_DROP, max_fires=1).active():
        assert vcpu.vmexit(ExitReason.PML_FULL, "batch0") is None
        # No root-mode transition: no vmexit counted, no cost charged.
        assert vcpu.n_vmexits == 0
        assert clock.now_us == 0.0
        # Other exit reasons are never dropped.
        assert vcpu.vmexit(ExitReason.HYPERCALL, None) == "handled"
    assert vcpu.n_dropped_vmexits == 1
    vcpu.vmexit(ExitReason.PML_FULL, "batch1")
    assert seen == ["batch1"]
