"""The ``fleet`` experiment: drain one overloaded host across a fleet.

Scenario: ``n_vms`` VMs all land on host ``h0`` (the incast after a rack
failure); the orchestrator then drains ``h0`` by migrating every VM off
over one shared backbone link, placing each by WSS pressure.  Every third
VM is "hot" (dirty rate near the link's capacity) so some migrations
auto-converge under throttling while the hottest trip the downtime SLO
and fall back to post-copy — the experiment's table shows both modes,
their page budgets, and per-VM downtime under contention.

Deterministic by construction: one seed derives every workload stream,
placement is pressure-ranked with stable tie-breaks, and concurrent
pre-copy loops interleave round-robin in submission order — same seed and
config ⇒ byte-identical report.  Configured by ``RunConfig.fleet_hosts`` /
``fleet_vms`` (CLI ``--hosts`` / ``--vms``); the seed is :data:`SEED`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import RunConfig
from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.experiments.cache import EXPERIMENT_CACHE
from repro.fleet.host import Host, VmSpec
from repro.fleet.orchestrator import (
    FleetMigrationReport,
    MigrationOrchestrator,
    MigrationPolicy,
)
from repro.hypervisor.vm import Vm
from repro.net.link import Link
from repro.net.transport import Transport

__all__ = ["FleetScenarioResult", "run_fleet_scenario", "exp_fleet"]

#: Seed of every workload stream in the registry's drain scenario.
SEED = 7


@dataclass
class FleetScenarioResult:
    """Cache-friendly scalars + per-migration reports (no live objects)."""

    n_hosts: int
    n_vms: int
    seed: int
    total_us: float = 0.0
    reports: list[FleetMigrationReport] = field(default_factory=list)
    #: host_id -> committed pages after the drain.
    committed_pages: dict[str, int] = field(default_factory=dict)


def _specs(n_vms: int, vm_mb: float, seed: int) -> list[VmSpec]:
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(n_vms):
        pages = Vm.mb(vm_mb)  # workload spans the whole footprint
        if i % 3 == 0:
            # Hot tenant: dirty rate beyond what the contended link can
            # carry — trips the SLO and falls back to post-copy.
            writes, frac, compute = int(rng.integers(1500, 2600)), 1.0, 200.0
        else:
            # Moderate tenant: auto-converge throttling can beat the
            # dirty rate even under contention.
            writes, frac, compute = int(rng.integers(40, 120)), 0.7, 500.0
        specs.append(
            VmSpec(
                name=f"vm{i}",
                mem_mb=vm_mb,
                workload_pages=pages,
                writes_per_round=writes,
                write_fraction=frac,
                compute_us_per_round=compute,
                seed=seed + i,
            )
        )
    return specs


def run_fleet_scenario(
    n_hosts: int = 3,
    n_vms: int = 6,
    seed: int = SEED,
    quick: bool = False,
) -> FleetScenarioResult:
    """Build the fleet, overload ``h0``, drain it; return the outcome."""
    clock = SimClock()
    costs = CostModel()
    vm_mb = 8.0 if quick else 16.0
    base_mb = 96.0 if quick else 256.0
    host_mb = max(base_mb, vm_mb * n_vms + 32.0)
    hosts = [
        Host(f"h{i}", clock, costs, mem_mb=host_mb) for i in range(n_hosts)
    ]
    link = Link("backbone")
    transport = Transport(clock, costs)
    policy = MigrationPolicy(downtime_slo_us=2500.0)
    orch = MigrationOrchestrator(hosts, transport, link, policy)

    fvms = [hosts[0].place(spec) for spec in _specs(n_vms, vm_mb, seed)]
    start = clock.now_us
    reports = orch.migrate_many([(fvm, None) for fvm in fvms])

    return FleetScenarioResult(
        n_hosts=n_hosts,
        n_vms=n_vms,
        seed=seed,
        total_us=clock.now_us - start,
        reports=reports,
        committed_pages={h.host_id: h.committed_pages for h in hosts},
    )


def exp_fleet(config: RunConfig):
    """Registry entry: the drain scenario rendered as a table."""
    from repro.experiments.runner import ExperimentOutput
    from repro.experiments.tables import fmt_ms, render_table

    n_hosts, n_vms, seed = config.fleet_hosts, config.fleet_vms, SEED
    result: FleetScenarioResult = EXPERIMENT_CACHE.get_or_run(
        ("fleet", n_hosts, n_vms, seed, config.quick),
        lambda: run_fleet_scenario(n_hosts, n_vms, seed, quick=config.quick),
    )
    headers = ["vm", "route", "mode", "rounds", "pages", "retrans",
               "throttle", "wss", "downtime ms", "total ms", "ok"]
    rows = []
    for r in result.reports:
        rows.append([
            r.vm_name,
            f"{r.src_host}->{r.dst_host}",
            r.mode,
            r.rounds,
            r.total_pages_sent,
            r.retransmitted_pages,
            f"{r.throttle_peak:.1f}",
            r.wss_pages,
            fmt_ms(r.downtime_us),
            fmt_ms(r.total_us),
            "yes" if r.integrity_ok else "NO",
        ])
    text = render_table(
        headers, rows,
        f"Fleet drain: {n_vms} VMs off h0 over one backbone "
        f"({n_hosts} hosts, seed {seed})",
    )
    return ExperimentOutput(
        "fleet", headers, rows, text,
        extra={
            "total_us": result.total_us,
            "committed_pages": result.committed_pages,
            "modes": {r.vm_name: r.mode for r in result.reports},
        },
    )
