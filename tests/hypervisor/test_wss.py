"""Tests for accessed-bit working-set-size estimation."""

import numpy as np
import pytest

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.errors import ConfigurationError
from repro.fleet.economics.wss_history import WssHistory
from repro.fleet.host import Host, VmSpec
from repro.hypervisor.wss import sample_accessed_pages


def estimate(vm, interval, intervals: int) -> int:
    """``intervals`` samples into a fresh history, then the planning
    estimate: the arithmetic ``FleetVm.sample_wss`` publishes."""
    history = WssHistory(initial_pages=vm.mem_pages)
    for _ in range(intervals):
        history.record(sample_accessed_pages(vm, interval))
    assert len(history.samples) == intervals
    return history.refresh_planning(intervals)


def test_wss_counts_touched_pages(stack):
    proc = stack.kernel.spawn("app", n_pages=256)
    proc.space.add_vma(256)
    stack.kernel.access(proc, np.arange(256), True)  # populate

    def interval():
        stack.kernel.access(proc, np.arange(64), False)  # reads count too

    assert sample_accessed_pages(stack.vm, interval) == 64


def test_wss_tracks_shrinking_working_set(stack):
    proc = stack.kernel.spawn("app", n_pages=256)
    proc.space.add_vma(256)
    stack.kernel.access(proc, np.arange(256), True)
    sizes = iter([128, 64, 32])

    def interval():
        stack.kernel.access(proc, np.arange(next(sizes)), False)

    counts = [sample_accessed_pages(stack.vm, interval) for _ in range(3)]
    assert counts == [128, 64, 32]


def test_wss_estimate_averages(stack):
    proc = stack.kernel.spawn("app", n_pages=64)
    proc.space.add_vma(64)
    stack.kernel.access(proc, np.arange(64), True)
    sizes = iter([8, 24, 16, 16])
    avg = estimate(
        stack.vm,
        lambda: stack.kernel.access(proc, np.arange(next(sizes)), False),
        intervals=4,
    )
    assert avg == 16


def test_wss_estimate_pages_matches_constant_working_set(stack):
    proc = stack.kernel.spawn("app", n_pages=64)
    proc.space.add_vma(64)
    stack.kernel.access(proc, np.arange(64), True)
    pages = estimate(
        stack.vm,
        lambda: stack.kernel.access(proc, np.arange(16), False),
        intervals=3,
    )
    assert pages == 16
    assert isinstance(pages, int)


def test_wss_estimate_pages_rounds_up(stack):
    """The fleet placement consumer budgets whole frames: a fractional
    average working set must round *up*, never down."""
    proc = stack.kernel.spawn("app", n_pages=64)
    proc.space.add_vma(64)
    stack.kernel.access(proc, np.arange(64), True)
    sizes = iter([3, 4])  # mean 3.5 -> 4 pages

    def interval():
        stack.kernel.access(proc, np.arange(next(sizes)), False)

    assert estimate(stack.vm, interval, intervals=2) == 4


def test_wss_validation():
    host = Host("h0", SimClock(), CostModel(), mem_mb=4.0)
    fvm = host.place(VmSpec("vm0", mem_mb=1.0, workload_pages=64,
                            writes_per_round=8))
    with pytest.raises(ConfigurationError):
        fvm.sample_wss(0)


def test_wss_zero_access_interval(stack):
    """An interval in which the VM touches nothing samples zero pages and
    the estimate stays at zero — idle VMs must not inflate placement."""
    proc = stack.kernel.spawn("app", n_pages=64)
    proc.space.add_vma(64)
    stack.kernel.access(proc, np.arange(64), True)
    assert sample_accessed_pages(stack.vm, lambda: None) == 0
    assert estimate(stack.vm, lambda: None, intervals=2) == 0


def test_wss_single_interval_is_that_sample(stack):
    proc = stack.kernel.spawn("app", n_pages=64)
    proc.space.add_vma(64)
    stack.kernel.access(proc, np.arange(64), True)
    pages = estimate(
        stack.vm,
        lambda: stack.kernel.access(proc, np.arange(23), False),
        intervals=1,
    )
    assert pages == 23


def test_wss_multi_vcpu_sampling_under_rotation():
    """SMP: quantum expiry rotates the process across vCPUs mid-interval;
    accessed bits are per-EPT (not per-vCPU), so the sample must still
    count every touched page exactly once."""
    from repro.experiments.harness import build_stack

    stack = build_stack(vm_mb=8, n_vcpus=4, switch_interval_us=50.0)
    proc = stack.kernel.spawn("app", n_pages=256)
    proc.space.add_vma(256)
    stack.kernel.access(proc, np.arange(256), True)

    def interval():
        # Several small batches with compute between them, so the
        # scheduler rotates the process across all four vCPUs.
        for i in range(8):
            stack.kernel.access(proc, np.arange(i * 16, (i + 1) * 16), True)
            stack.kernel.compute(proc, 60.0)

    assert sample_accessed_pages(stack.vm, interval) == 128


def test_wss_estimate_stable_across_repeat_runs():
    """Same seed, same workload, fresh stacks: the estimate is the same
    number — the fleet's placement decisions are reproducible."""
    from repro.experiments.harness import build_stack

    def one_run() -> int:
        stack = build_stack(vm_mb=8)
        proc = stack.kernel.spawn("app", n_pages=512)
        proc.space.add_vma(512)
        stack.kernel.access(proc, np.arange(512), True)
        rng = np.random.default_rng(42)
        return estimate(
            stack.vm,
            lambda: stack.kernel.access(proc, rng.integers(0, 512, 96), True),
            intervals=3,
        )

    assert one_run() == one_run()


def test_wss_sample_correct_with_warm_tlb():
    """Regression: every interval counts a batch the TLB fast path was
    taking.  Clearing the EPT accessed bits makes the fast path decline
    the batch, so the walk re-sets them; a sample that read 0 here would
    mean a TLB-cached access skipped the accessed-bit update."""
    from repro.experiments.harness import build_stack

    stack = build_stack(vm_mb=8)
    proc = stack.kernel.spawn("app", n_pages=128)
    proc.space.add_vma(128)
    stack.kernel.access(proc, np.arange(128), True)
    batch = np.arange(32, dtype=np.int64)
    for _ in range(4):  # warm: the batch now takes the fast path
        stack.kernel.access(proc, batch, True)
    assert stack.vm.mmu.n_fast_batches > 0
    for _ in range(3):
        n = sample_accessed_pages(
            stack.vm, lambda: stack.kernel.access(proc, batch, True)
        )
        assert n == 32


def test_wss_does_not_break_pml_tracking(stack):
    """Accessed-bit sampling must not disturb dirty-bit logging."""
    from repro.core.tracking import Technique, make_tracker

    proc = stack.kernel.spawn("app", n_pages=64)
    proc.space.add_vma(64)
    stack.kernel.access(proc, np.arange(64), True)
    tracker = make_tracker(Technique.EPML, stack.kernel, proc)
    tracker.start()
    sample_accessed_pages(stack.vm, lambda: stack.kernel.access(proc, [1, 2], True))
    dirty = set(int(v) for v in tracker.collect())
    tracker.stop()
    assert dirty == {1, 2}
