"""Ratio 1.0 differential: overcommit disabled must be the PR 5 fleet.

``overcommit_ratio=1.0`` constructs no economics object, installs no
balloon, registers no userfaultfd, and the WSS-history bookkeeping is
pure (no clock charges, no RNG draws) — so every machine-visible bit of
a fleet run must be identical to a run on stock hosts.  This pins the
acceptance criterion that the new subsystem is pay-for-what-you-use.
"""

import numpy as np

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.fleet.host import Host, VmSpec
from repro.fleet.orchestrator import MigrationOrchestrator, MigrationPolicy
from repro.net.link import Link
from repro.net.transport import Transport
from tests.smp.helpers import full_state

SPEC = VmSpec(
    name="vm0",
    mem_mb=4.0,
    workload_pages=768,
    writes_per_round=120,
    write_fraction=0.9,
    compute_us_per_round=250.0,
    seed=21,
)


def run_fleet(ratio_kwargs: dict) -> tuple:
    clock = SimClock()
    costs = CostModel()
    hosts = [
        Host(f"h{i}", clock, costs, mem_mb=16.0, **ratio_kwargs)
        for i in range(2)
    ]
    orch = MigrationOrchestrator(
        hosts,
        Transport(clock, costs),
        Link("backbone"),
        MigrationPolicy(downtime_slo_us=2500.0, wss_intervals=2),
    )
    fvm = hosts[0].place(SPEC)
    for _ in range(4):
        fvm.run_round()
    fvm.sample_wss(2)
    report = orch.migrate(fvm)  # placement + estimate + the whole protocol
    for _ in range(2):
        fvm.run_round()
    return (
        full_state(fvm.vm, clock, fvm.proc),
        fvm.wss.planning_pages,
        report.mode,
        report.total_pages_sent,
        report.downtime_us,
    )


def test_ratio_one_is_bit_identical_to_stock_fleet():
    assert run_fleet({}) == run_fleet({"overcommit_ratio": 1.0})


def test_estimate_wss_value_unchanged_by_history_refactor():
    """The published planning value is the ceil of the mean over the
    intervals just sampled (a fractional page still occupies a frame)."""
    clock = SimClock()
    costs = CostModel()
    host = Host("h0", clock, costs, mem_mb=16.0)
    fvm = host.place(SPEC)
    got = fvm.sample_wss(3)
    # Recompute from the recorded samples with the estimator arithmetic.
    recent = list(fvm.wss.samples)[-3:]
    assert len(fvm.wss.samples) == 3
    assert got == int(np.ceil(float(np.mean(recent))))
    assert fvm.wss.planning_pages == got
