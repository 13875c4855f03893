"""Orchestrator unit tests: WSS-driven placement, capacity, validation."""

import numpy as np
import pytest

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.errors import ConfigurationError
from repro.fleet.host import FleetVm, Host, VmSpec
from repro.fleet.orchestrator import MigrationOrchestrator, MigrationPolicy
from repro.net.link import Link
from repro.net.transport import Transport
from repro.obs import trace as otr
from repro.obs.events import EventKind


def _spec(name: str, writes: int = 100, pages: int = 256) -> VmSpec:
    return VmSpec(
        name=name,
        mem_mb=1.0,
        workload_pages=pages,
        writes_per_round=writes,
        seed=21,
    )


def _fleet(n_hosts: int = 3, mem_mb: float = 8.0, policy=None):
    clock = SimClock()
    costs = CostModel()
    hosts = [
        Host(f"h{i}", clock, costs, mem_mb=mem_mb) for i in range(n_hosts)
    ]
    orch = MigrationOrchestrator(
        hosts, Transport(clock, costs), Link("l"), policy
    )
    return hosts, orch


def _set_wss(fvm: FleetVm, pages: int) -> None:
    """Publish ``pages`` as the VM's planning estimate (one sample)."""
    fvm.wss.record(pages)
    fvm.wss.refresh_planning(1)


def test_estimate_wss_samples_the_live_working_set():
    hosts, _ = _fleet()
    fvm = hosts[0].place(_spec("vm0", writes=40, pages=256))
    assert fvm.wss.planning_pages == 256  # pessimistic until sampled
    before = fvm.n_rounds
    wss = fvm.sample_wss(2)
    assert wss == fvm.wss.planning_pages
    assert fvm.n_rounds == before + 2  # one workload round per interval
    # ~40 random touches over 256 pages: far below the footprint, and
    # never more than one round's access count.
    assert 0 < wss <= 40


def test_wss_intervals_zero_skips_sampling():
    hosts, orch = _fleet(policy=MigrationPolicy(wss_intervals=0))
    fvm = hosts[0].place(_spec("vm0"))
    report = orch.migrate(fvm)
    # Placement read the never-sampled, pessimistic estimate.
    assert report.wss_pages == fvm.spec.workload_pages
    assert list(fvm.wss.samples) == []


def test_placement_prefers_host_with_least_wss_pressure():
    """Equal free frames: the host whose residents have the smaller
    working sets wins (WSS pressure, not just capacity)."""
    hosts, orch = _fleet(3)
    mover = hosts[0].place(_spec("mover"))
    # Same committed footprint on h1 and h2, very different heat.
    hot = hosts[1].place(_spec("hot", writes=200))
    cold = hosts[2].place(_spec("cold", writes=200))
    _set_wss(hot, 250)
    _set_wss(cold, 10)
    assert orch.select_destination(mover) is hosts[2]
    # Flip the heat: the choice flips with it.
    _set_wss(hot, 10)
    _set_wss(cold, 250)
    assert orch.select_destination(mover) is hosts[1]


def test_placement_skips_hosts_without_capacity():
    hosts, orch = _fleet(3, mem_mb=8.0)
    mover = hosts[0].place(_spec("mover"))
    # h1 is idle but fully reserved by an in-flight migration; h2 busy.
    hosts[1].reserved_pages = hosts[1].free_pages
    hosts[2].place(_spec("other"))
    assert orch.select_destination(mover) is hosts[2]


def test_no_feasible_destination_raises():
    hosts, orch = _fleet(2)
    mover = hosts[0].place(_spec("mover"))
    hosts[1].reserved_pages = hosts[1].free_pages
    with pytest.raises(ConfigurationError):
        orch.select_destination(mover)


def test_explicit_destination_checked_for_capacity():
    hosts, orch = _fleet(2)
    mover = hosts[0].place(_spec("mover"))
    hosts[1].reserved_pages = hosts[1].free_pages
    with pytest.raises(ConfigurationError):
        orch.migrate(mover, dst=hosts[1])


def test_concurrent_placements_spread_via_reservations():
    """Two concurrent auto-placed migrations must not pile onto one
    host: the first claim reserves frames the second decision sees."""
    hosts, orch = _fleet(3, policy=MigrationPolicy(wss_intervals=0))
    a = hosts[0].place(_spec("a"))
    b = hosts[0].place(_spec("b"))
    reports = orch.migrate_many([(a, None), (b, None)])
    assert {r.dst_host for r in reports} == {"h1", "h2"}
    assert all(r.integrity_ok for r in reports)
    for host in hosts[1:]:
        assert host.reserved_pages == 0  # claims fully converted


def test_placement_emits_event_and_metric():
    hosts, orch = _fleet(3)
    mover = hosts[0].place(_spec("mover"))
    with otr.TraceSession().active() as session:
        dst = orch.select_destination(mover)
    events = session.trace.by_kind(EventKind.FLEET_PLACEMENT)
    assert len(events) == 1
    assert events[0].fields["vm"] == "mover"
    assert events[0].fields["host_id"] == dst.host_id
    counters = session.metrics.snapshot()["counters"]
    assert counters[f"fleet.host.{dst.host_id}.placements"] == 1


def test_orchestrator_validates_fleet():
    clock, costs = SimClock(), CostModel()
    transport, link = Transport(clock, costs), Link("l")
    with pytest.raises(ConfigurationError):
        MigrationOrchestrator([], transport, link)
    dup = [Host("h0", clock, costs, 8.0), Host("h0", clock, costs, 8.0)]
    with pytest.raises(ConfigurationError):
        MigrationOrchestrator(dup, transport, link)


@pytest.mark.parametrize("field, value", [
    ("wss_intervals", -1),
    ("postcopy_dest_rounds", -2),
    ("stop_threshold_pages", -5),
    ("downtime_slo_us", -1.0),
    ("downtime_slo_us", 0.0),
    ("downtime_slo_us", float("nan")),
    ("downtime_slo_us", float("inf")),
])
def test_migration_policy_rejects_bad_values(field, value):
    with pytest.raises(ConfigurationError, match=field):
        MigrationPolicy(**{field: value})
    # The boundary values stay valid.
    MigrationPolicy(wss_intervals=0, postcopy_dest_rounds=0,
                    stop_threshold_pages=0, downtime_slo_us=None)
    MigrationPolicy(downtime_slo_us=1e-3)


def test_migrating_an_unplaced_vm_rejected():
    hosts, orch = _fleet(2)
    with pytest.raises(ConfigurationError):
        orch.migrate(FleetVm(_spec("ghost")))


def test_unbound_fleet_vm_cannot_run():
    with pytest.raises(ConfigurationError):
        FleetVm(_spec("ghost")).run_round()


def test_vmspec_validation():
    with pytest.raises(ConfigurationError):
        VmSpec("x", mem_mb=1.0, workload_pages=0, writes_per_round=1)
    with pytest.raises(ConfigurationError):
        VmSpec("x", mem_mb=1.0, workload_pages=999, writes_per_round=1)
    with pytest.raises(ConfigurationError):
        VmSpec("x", mem_mb=1.0, workload_pages=16, writes_per_round=0)
    with pytest.raises(ConfigurationError):
        VmSpec(
            "x", mem_mb=1.0, workload_pages=16, writes_per_round=1,
            write_fraction=1.5,
        )


def test_workload_rng_survives_rebinding():
    """The workload stream belongs to the FleetVm, not the host: the
    post-migration rounds continue the same random sequence instead of
    rewinding to a fresh one."""
    spec = _spec("vm0")
    hosts, orch = _fleet(2, policy=MigrationPolicy(wss_intervals=0))
    fvm = hosts[0].place(spec)
    rng = fvm._rng
    orch.migrate(fvm, dst=hosts[1])
    assert fvm.host is hosts[1]
    assert fvm._rng is rng  # same stream object across the rebind...
    fresh = FleetVm(spec)
    # ...and its position reflects the rounds already run: the next
    # draw differs from a fresh VM's first draw.
    assert not np.array_equal(
        fvm._rng.integers(0, 10**9, 8), fresh._rng.integers(0, 10**9, 8)
    )


def test_host_capacity_accounting():
    clock, costs = SimClock(), CostModel()
    host = Host("h0", clock, costs, mem_mb=4.0)
    cap = host.capacity_pages
    assert host.free_pages == cap
    fvm = host.place(_spec("vm0"))
    assert host.committed_pages == fvm.spec.mem_pages
    assert host.hot_pages == fvm.wss.planning_pages
    host.reserved_pages = 100
    assert host.available_pages == host.free_pages - 100
    assert host.fits(host.available_pages)
    assert not host.fits(host.available_pages + 1)
    host.reserved_pages = 0
    host.evict(fvm)
    assert host.free_pages == cap and not host.vms
