"""Tests for PML-driven pre-copy live migration."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.hypervisor.migration import LiveMigration


def make_workload(stack, n_pages=64, writes_per_round=4):
    proc = stack.kernel.spawn("app", n_pages=n_pages)
    proc.space.add_vma(n_pages)
    stack.kernel.access(proc, np.arange(n_pages), True)  # populate

    state = {"i": 0}

    def round_() -> None:
        lo = state["i"] % n_pages
        stack.kernel.access(
            proc, np.arange(lo, min(lo + writes_per_round, n_pages)), True
        )
        state["i"] += writes_per_round

    return proc, round_


def test_migration_converges_with_small_dirty_rate(stack):
    _, workload = make_workload(stack, n_pages=64, writes_per_round=4)
    mig = LiveMigration(stack.hv, stack.vm, stop_threshold_pages=8)
    report = mig.migrate(workload)
    assert report.converged
    assert report.pages_per_round[0] == stack.vm.mem_pages
    # Later rounds shrink to the workload's write rate.
    assert report.pages_per_round[-1] <= 8
    assert report.downtime_us <= 8 * mig.page_send_us
    assert report.total_pages_sent == sum(report.pages_per_round)


def test_migration_gives_up_after_max_rounds(stack):
    n = 64
    proc = stack.kernel.spawn("hot", n_pages=n)
    proc.space.add_vma(n)
    stack.kernel.access(proc, np.arange(n), True)

    def hot_round() -> None:  # rewrites everything every round
        stack.kernel.access(proc, np.arange(n), True)

    mig = LiveMigration(stack.hv, stack.vm, max_rounds=3, stop_threshold_pages=1)
    report = mig.migrate(hot_round)
    assert not report.converged
    assert report.rounds == 3
    assert report.downtime_us > 0


def test_migration_disables_hypervisor_logging_after(stack):
    _, workload = make_workload(stack)
    LiveMigration(stack.hv, stack.vm, stop_threshold_pages=8).migrate(workload)
    assert not stack.vm.enabled_by_hyp


def test_migration_charges_send_time(stack):
    _, workload = make_workload(stack)
    t0 = stack.clock.now_us
    report = LiveMigration(stack.hv, stack.vm, stop_threshold_pages=8).migrate(
        workload
    )
    assert report.total_us == pytest.approx(stack.clock.now_us - t0)
    assert report.total_us > 0


def test_bad_max_rounds():
    with pytest.raises(ConfigurationError):
        LiveMigration(None, None, max_rounds=0)


def test_migration_resends_everything_after_dropped_pml_entries(stack):
    """A dropped hypervisor-level PML entry could be any page: the
    stop-and-copy round widens to every mapped page, although no vmexit
    was lost."""
    _, workload = make_workload(stack, n_pages=2048, writes_per_round=1024)
    mig = LiveMigration(stack.hv, stack.vm, stop_threshold_pages=2048)
    with FaultPlan([FaultSpec(FaultSite.PML_ENTRY_DROP, 0.5)]).active():
        report = mig.migrate(workload)
    assert report.converged
    assert report.pages_per_round[-1] == stack.vm.mem_pages
    assert report.lost_pml_vmexits == 0
    assert stack.vm.vcpu.pml.hyp.n_injected_drops > 0
