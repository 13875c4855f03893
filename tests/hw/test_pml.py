"""Tests for the PML circuit (original + EPML extension)."""

import numpy as np
import pytest

from repro.errors import PmlError
from repro.hw import vmcs as vm
from repro.hw.pml import PmlBuffer, PmlCircuit


def make_circuit(capacity=8) -> tuple[PmlCircuit, list, list]:
    v = vm.Vmcs()
    c = PmlCircuit(v, capacity=capacity)
    hyp_drains: list[np.ndarray] = []
    guest_drains: list[np.ndarray] = []
    c.hyp.on_full = hyp_drains.append
    c.guest.on_full = guest_drains.append
    return c, hyp_drains, guest_drains


LEVELS = ("hyp", "guest")


def enable(c: PmlCircuit, level: str) -> None:
    lv = getattr(c, level)
    lv.vmcs.write(lv.f_enable, 1)


def log(c: PmlCircuit, level: str, values) -> None:
    """The MMU's entry point for ``level``."""
    (c.log_gpas if level == "hyp" else c.log_gvas)(values)


def test_buffer_index_counts_down_from_top():
    b = PmlBuffer(8)
    assert b.index == 7
    b.append(np.array([1, 2, 3], dtype=np.uint64))
    assert b.index == 4
    assert b.n_logged == 3


def test_buffer_drain_returns_logging_order():
    b = PmlBuffer(8)
    b.append(np.array([10, 20, 30], dtype=np.uint64))
    assert list(b.drain()) == [10, 20, 30]
    assert b.index == 7  # reset


def test_disabled_circuit_logs_nothing():
    c, hyp, _ = make_circuit()
    c.hyp.configure()
    c.log_gpas(np.array([1, 2, 3]))
    assert c.hyp.n_logged == 0
    assert c.hyp.drain().size == 0


def test_enabled_circuit_logs_and_updates_vmcs_index():
    c, hyp, _ = make_circuit()
    c.hyp.configure()
    c.vmcs.write(vm.F_CTRL_ENABLE_PML, 1)
    c.log_gpas(np.array([5, 6]))
    assert c.hyp.n_logged == 2
    assert c.vmcs.read(vm.F_PML_INDEX) == 8 - 1 - 2
    assert list(c.hyp.drain()) == [5, 6]
    assert c.vmcs.read(vm.F_PML_INDEX) == 7


@pytest.mark.parametrize("level", LEVELS)
def test_buffer_full_raises_vmexit_callback(level):
    """A full buffer hands its batch to the level's handler (the vmexit
    for the hypervisor level, the self-IPI for the guest level)."""
    c, hyp, guest = make_circuit(capacity=4)
    lv = getattr(c, level)
    lv.configure()
    enable(c, level)
    log(c, level, np.arange(10))
    # 10 entries through a 4-slot buffer: full events at 4 and 8.
    assert lv.n_full_events == 2
    drains = hyp if level == "hyp" else guest
    assert [list(d) for d in drains] == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert list(lv.drain()) == [8, 9]
    assert lv.vmcs.read(lv.f_index) == 3


@pytest.mark.parametrize("level", LEVELS)
def test_exactly_full_buffer_drains_once(level):
    c, _, _ = make_circuit(capacity=4)
    lv = getattr(c, level)
    lv.configure()
    enable(c, level)
    log(c, level, np.arange(4))
    assert lv.n_full_events == 1
    assert lv.drain().size == 0


def test_guest_buffer_independent_of_hyp_buffer():
    c, hyp, guest = make_circuit(capacity=4)
    c.hyp.configure()
    c.guest.configure()
    c.vmcs.write(vm.F_CTRL_ENABLE_GUEST_PML, 1)  # only guest-level enabled
    c.log_gpas(np.arange(6))
    c.log_gvas(np.arange(100, 106))
    assert c.hyp.n_logged == 0
    assert c.guest.n_logged == 6
    assert c.guest.n_full_events == 1
    assert [list(d) for d in guest] == [[100, 101, 102, 103]]
    assert list(c.guest.drain()) == [104, 105]


def test_epml_controls_read_from_shadow_vmcs():
    """With a linked shadow VMCS, enables live in the shadow (EPML)."""
    ordinary = vm.Vmcs()
    shadow = vm.Vmcs(is_shadow=True)
    ordinary.link_shadow(shadow)
    c = PmlCircuit(ordinary, capacity=4)
    c.guest.configure()
    assert not c.guest.enabled()
    shadow.write(vm.F_CTRL_ENABLE_GUEST_PML, 1)
    assert c.guest.enabled()


@pytest.mark.parametrize("level", LEVELS)
def test_enabled_without_buffer_raises(level):
    c, _, _ = make_circuit()
    enable(c, level)
    with pytest.raises(PmlError):
        log(c, level, np.array([1]))


@pytest.mark.parametrize("level", LEVELS)
def test_full_without_handler_drops_atomically(level):
    """A full event with no handler must not abort the batch mid-way:
    the buffer wraps, the loss is counted, and later entries still land."""
    c = PmlCircuit(vm.Vmcs(), capacity=2)
    lv = getattr(c, level)
    lv.configure()
    enable(c, level)
    log(c, level, np.arange(3))
    assert lv.n_full_events == 1
    assert lv.n_dropped == 2
    assert lv.n_logged == 3
    assert lv.buffer is not None and lv.buffer.n_logged == 1
    other = c.guest if level == "hyp" else c.hyp
    assert other.n_logged == other.n_dropped == other.n_full_events == 0


@pytest.mark.parametrize("level", LEVELS)
def test_no_loss_across_many_batches(level):
    """Everything logged is either drained via full events or residual."""
    c, hyp, guest = make_circuit(capacity=16)
    lv = getattr(c, level)
    lv.configure()
    enable(c, level)
    rng = np.random.default_rng(0)
    sent: list[int] = []
    for _ in range(20):
        batch = rng.integers(0, 1 << 40, size=rng.integers(0, 50))
        log(c, level, batch.astype(np.uint64))
        sent.extend(int(x) for x in batch)
    drains = hyp if level == "hyp" else guest
    got = [int(x) for d in drains for x in d] + [int(x) for x in lv.drain()]
    assert got == sent
