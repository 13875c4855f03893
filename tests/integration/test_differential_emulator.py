"""Differential validation: fast simulator vs reference emulator.

Plays the role of the paper's BOCHS cross-validation (§VI-B): identical
access streams must produce identical PML behaviour in the vectorised
simulator and the independent scalar reference model.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.emu import RefMachine
from repro.guest.kernel import GuestKernel
from repro.hw import vmcs as vmcsf
from repro.hw.pagetable import PTE_DIRTY
from repro.hypervisor.hypervisor import Hypervisor

N_PAGES = 96
CAPACITY = 16  # small buffer => frequent full events in the tests


class FastHarness:
    """The production stack wired for raw log capture."""

    def __init__(self) -> None:
        clock = SimClock()
        hv = Hypervisor(clock, CostModel(), host_mem_mb=32)
        self.vm = hv.create_vm("vm0", mem_mb=8,
                               pml_buffer_entries=CAPACITY)
        self.kernel = GuestKernel(self.vm)
        self.proc = self.kernel.spawn("app", n_pages=N_PAGES)
        self.proc.space.add_vma(N_PAGES)
        pml = self.vm.vcpu.pml
        pml.hyp.configure()
        pml.guest.configure()
        self.guest_chunks: list[np.ndarray] = []
        pml.guest.on_full = self.guest_chunks.append
        self.vm.enabled_by_hyp = True  # route hyp drains to the VM log
        self.vm.vcpu.vmcs.write(vmcsf.F_CTRL_ENABLE_PML, 1)
        self.vm.vcpu.vmcs.write(vmcsf.F_CTRL_ENABLE_GUEST_PML, 1)

    def access(self, vpn: int, write: bool) -> None:
        self.kernel.access(self.proc, [vpn], write)

    # -- observation ------------------------------------------------------
    def guest_log(self) -> list[int]:
        pml = self.vm.vcpu.pml
        out = [int(v) for chunk in self.guest_chunks for v in chunk]
        out += [int(v) for v in pml.guest.buffer.drain()]
        return out

    def hyp_log_as_vpns(self) -> list[int]:
        pml = self.vm.vcpu.pml
        gpfns = [int(g) for chunk in self.vm.hyp_dirty_log for g in chunk]
        gpfns += [int(g) for g in pml.hyp.drain()]
        back = self.proc.space.pt.reverse_lookup(
            np.asarray(gpfns, dtype=np.int64)
        )
        return [int(v) for v in back]

    def pte_dirty_set(self) -> set[int]:
        return set(
            int(v) for v in self.proc.space.pt.vpns_with_flag(PTE_DIRTY)
        )


def run_both(stream):
    fast = FastHarness()
    ref = RefMachine(N_PAGES, capacity=CAPACITY)
    ref.hyp_enabled = True
    ref.guest_enabled = True
    for vpn, write in stream:
        fast.access(vpn, write)
        ref.access(vpn, write)
    return fast, ref


@settings(max_examples=60, deadline=None)
@given(
    stream=st.lists(
        st.tuples(st.integers(0, N_PAGES - 1), st.booleans()),
        min_size=1,
        max_size=120,
    )
)
def test_differential_logs_and_dirty_bits(stream):
    fast, ref = run_both(stream)
    # Guest-level (EPML) log: exact sequence of VPNs.
    assert fast.guest_log() == ref.drain_guest()
    # Hypervisor-level log: same dirty-page sequence (compared as VPNs).
    assert fast.hyp_log_as_vpns() == [
        next(v for v, g in ref.gpfn_of.items() if g == gg)
        for gg in ref.drain_hyp()
    ]
    # PTE dirty-bit outcome.
    assert fast.pte_dirty_set() == {
        v for v, d in ref.pte_dirty.items() if d
    }


@settings(max_examples=40, deadline=None)
@given(
    stream=st.lists(
        st.tuples(st.integers(0, N_PAGES - 1), st.booleans()),
        min_size=1,
        max_size=200,
    )
)
def test_differential_full_event_counts(stream):
    fast, ref = run_both(stream)
    pml = fast.vm.vcpu.pml
    assert pml.guest.n_full_events == ref.guest_buffer.full_events
    assert pml.hyp.n_full_events == ref.hyp_buffer.full_events


def test_differential_batched_vs_scalar_equivalence():
    """The fast path's batching must not change outcomes: one batched
    call equals the same accesses issued one by one (duplicates included,
    first-instance-logs semantics)."""
    rng = np.random.default_rng(11)
    vpns = rng.integers(0, N_PAGES, size=300)
    writes = rng.random(300) < 0.7

    batched = FastHarness()
    batched.kernel.access(batched.proc, vpns, writes)

    scalar = FastHarness()
    for v, w in zip(vpns, writes):
        scalar.access(int(v), bool(w))

    assert set(batched.guest_log()) == set(scalar.guest_log())
    assert batched.pte_dirty_set() == scalar.pte_dirty_set()
    assert sorted(batched.hyp_log_as_vpns()) == sorted(scalar.hyp_log_as_vpns())


def test_reference_machine_bounds():
    ref = RefMachine(4)
    with pytest.raises(ValueError):
        ref.access(4, True)
