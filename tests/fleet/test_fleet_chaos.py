"""Satellite 5 (chaos): fleet migrations under injected network faults.

Three guarantees:

* the chaos plan really arms the new network fault sites (so the CI
  chaos leg exercises them alongside the tracking faults);
* a migration under drop/spike/partition faults still completes with
  destination integrity, surfaces its retransmissions, and is
  bit-deterministic for the fixed ``CHAOS_SEED``;
* a dirty-page tracker audited by the :class:`CompletenessAuditor`
  through a whole orchestrated migration under full chaos never loses a
  page silently.
"""

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.core.tracking import Technique, make_tracker
from repro.experiments.faultmatrix import CHAOS_SEED, chaos_plan
from repro.faults.auditor import CompletenessAuditor
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.fleet.host import Host, VmSpec
from repro.fleet.orchestrator import MigrationOrchestrator, MigrationPolicy
from repro.net.link import Link
from repro.net.transport import Transport


SPEC = VmSpec(
    name="vm0",
    mem_mb=4.0,
    workload_pages=1024,
    writes_per_round=600,
    write_fraction=0.9,
    compute_us_per_round=250.0,
    seed=CHAOS_SEED,
)


def _net_plan() -> FaultPlan:
    return FaultPlan(
        [
            FaultSpec(FaultSite.NET_DROP, 0.05),
            FaultSpec(FaultSite.NET_LATENCY_SPIKE, 0.05),
            FaultSpec(FaultSite.NET_PARTITION, 0.05),
        ],
        seed=CHAOS_SEED,
    )


def _migrate_under(plan: FaultPlan | None, spec: VmSpec = SPEC):
    clock = SimClock()
    costs = CostModel()
    hosts = [Host(f"h{i}", clock, costs, mem_mb=16.0) for i in range(2)]
    orch = MigrationOrchestrator(
        hosts,
        Transport(clock, costs),
        Link("backbone"),
        MigrationPolicy(downtime_slo_us=3000.0, wss_intervals=0),
    )
    fvm = hosts[0].place(spec)
    if plan is None:
        report = orch.migrate(fvm, dst=hosts[1])
    else:
        with plan.active():
            report = orch.migrate(fvm, dst=hosts[1])
    return clock, report


def test_chaos_plan_arms_network_sites():
    armed = {spec.site for spec in chaos_plan(0.1).specs}
    assert {
        FaultSite.NET_DROP,
        FaultSite.NET_LATENCY_SPIKE,
        FaultSite.NET_PARTITION,
    } <= armed


def test_migration_survives_net_chaos_with_integrity():
    clean_clock, clean = _migrate_under(None)
    clock, chaotic = _migrate_under(_net_plan())
    assert chaotic.integrity_ok
    # Losses cost time and are surfaced, never silent.
    assert chaotic.retransmitted_pages > 0
    assert clock.now_us > clean_clock.now_us
    assert chaotic.total_pages_sent >= clean.total_pages_sent


def test_net_chaos_outcome_is_seed_deterministic():
    def fingerprint():
        clock, r = _migrate_under(_net_plan())
        return (
            clock.now_us,
            r.mode,
            r.rounds,
            r.precopy.pages_per_round,
            r.total_pages_sent,
            r.retransmitted_pages,
            r.downtime_us,
            r.total_us,
            r.integrity_ok,
        )

    assert fingerprint() == fingerprint()


def test_audited_tracker_clean_through_migration_under_full_chaos():
    """An EPML tracker audited across a whole migration under the full
    chaos plan (tracking + network sites armed): every missed page must
    be surfaced by a counter — silent loss raises at ``stop()``."""
    clock = SimClock()
    costs = CostModel()
    hosts = [Host(f"h{i}", clock, costs, mem_mb=16.0) for i in range(2)]
    orch = MigrationOrchestrator(
        hosts,
        Transport(clock, costs),
        Link("backbone"),
        # Converging pre-copy: the audited process survives on the source
        # (stopped, not destroyed) so the final audit can still collect.
        MigrationPolicy(downtime_slo_us=None, wss_intervals=0),
    )
    spec = VmSpec(
        name="vm0",
        # Half-full footprint: the EPML guest buffer and the auditor's
        # oracle both allocate guest frames beyond the workload's 1024.
        mem_mb=8.0,
        workload_pages=1024,
        writes_per_round=200,
        compute_us_per_round=400.0,
        seed=CHAOS_SEED,
    )
    fvm = hosts[0].place(spec)
    tracker = make_tracker(Technique.EPML, fvm.kernel, fvm.proc)
    auditor = CompletenessAuditor(fvm.kernel, fvm.proc, tracker)
    auditor.start()
    fvm.add_round_hook(auditor.collect)

    with chaos_plan(0.05, seed=CHAOS_SEED).active():
        report = orch.migrate(fvm, dst=hosts[1], destroy_source=False)

    audit = auditor.stop()  # raises CompletenessViolation on silent loss
    assert not audit.silent_loss
    assert audit.n_truth > 0  # the audit actually saw migration rounds
    assert report.integrity_ok
