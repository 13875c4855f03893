"""The ``overcommit`` experiment: the ratio-vs-refault frontier.

Scenario: more tenants than the rack can nominally hold.  A pool of VMs
is offered to a small fleet in *admission waves*: each epoch the
first-fit-decreasing packer (:func:`~repro.fleet.economics.placement.pack`)
places whatever the hosts admit, the residents run their workloads while
the accessed-bit sampler refreshes their WSS histories, and the reclaim
controller rebalances.  Early epochs see pessimistic (whole-workload)
estimates; as sampling firms up, estimates shrink, admission opens, and
hosts fill past their physical capacity — the balloon squeezing cold
pages out, uffd refaults pulling them back in.

The sweep runs the identical offered load at several overcommit ratios.
Ratio 1.0 is the control: the economics layer is never constructed, so
the machine state is bit-identical to the plain fleet path.  Higher
ratios admit more tenants and pay for it in refaults — the frontier
table reports both sides (admitted count vs refaults per 1k accesses and
mean round latency), which is the paper's economics argument in one
screen: dirty-page-tracking-grade visibility into guest memory makes
overcommit a measured trade, not a gamble.

Deterministic by construction: one seed derives every workload stream,
packing and victim selection use stable orderings, and there is no
wall-clock anywhere.  The swept ratios are ``RunConfig.overcommit_ratios``
(CLI ``--overcommit-ratio``); the fleet is :data:`N_HOSTS` hosts offered
:data:`N_VMS` tenants seeded by :data:`SEED`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import RunConfig
from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.experiments.cache import memoized
from repro.fleet.economics.placement import pack
from repro.fleet.host import FleetVm, Host, VmSpec

__all__ = [
    "OvercommitRunResult",
    "overcommit_specs",
    "run_overcommit_scenario",
    "exp_overcommit",
]

#: The sweep: hosts, offered tenants (8 under ``quick``) and the
#: registry's workload seed.
N_HOSTS = 2
N_VMS = 14
SEED = 11

#: Accessed-bit sampling intervals per epoch per resident VM.
WSS_INTERVALS = 2


@dataclass
class OvercommitRunResult:
    """Cache-friendly scalars for one ratio point of the sweep."""

    ratio: float
    n_hosts: int
    n_vms: int
    seed: int
    epochs: int
    rounds_per_epoch: int
    admitted: int = 0
    rejected: int = 0
    #: host_id -> nominal footprint / physical capacity at the end.
    nominal_pages: dict[str, int] = field(default_factory=dict)
    capacity_pages: int = 0
    reclaimed_pages: int = 0
    refault_pages: int = 0
    refault_faults: int = 0
    pressure_events: int = 0
    total_accesses: int = 0
    total_rounds: int = 0
    total_us: float = 0.0
    peak_pressure: float = 0.0
    #: epoch index -> VMs resident after that epoch's admission wave.
    admitted_by_epoch: list[int] = field(default_factory=list)

    @property
    def refaults_per_1k_accesses(self) -> float:
        if self.total_accesses == 0:
            return 0.0
        return 1000.0 * self.refault_pages / self.total_accesses

    @property
    def mean_round_us(self) -> float:
        if self.total_rounds == 0:
            return 0.0
        return self.total_us / self.total_rounds


def overcommit_specs(n_vms: int, seed: int, quick: bool) -> list[VmSpec]:
    """The offered tenant pool.  Every footprint leaves a guest-frame
    float (footprint - workload >= writes_per_round) so the refault path
    always has frames to consume before the balloon deflates, and every
    workload is hot/cold skewed — the cold tail is what the balloon
    harvests and what the sampler must not confuse with demand."""
    specs = []
    for i in range(n_vms):
        if quick:
            mem_mb, workload, writes = 4.0, 768, 64
        else:
            mem_mb, workload, writes = 8.0, 1536, 96
        specs.append(
            VmSpec(
                name=f"ten{i:02d}",
                mem_mb=mem_mb,
                workload_pages=workload,
                writes_per_round=writes,
                write_fraction=0.8,
                compute_us_per_round=150.0,
                hot_fraction=0.25,
                hot_weight=0.9,
                seed=seed + i,
            )
        )
    return specs


def run_overcommit_scenario(
    ratio: float, seed: int = SEED, quick: bool = False
) -> OvercommitRunResult:
    """Offer the tenant pool to the :data:`N_HOSTS` hosts at one
    overcommit ratio; run the admission-wave loop; return the frontier
    point."""
    clock = SimClock()
    costs = CostModel()
    host_mb = 12.0 if quick else 24.0
    epochs = 3 if quick else 6
    rounds_per_epoch = 4 if quick else 8
    hosts = [
        Host(f"h{i}", clock, costs, mem_mb=host_mb, overcommit_ratio=ratio)
        for i in range(N_HOSTS)
    ]
    n_vms = 8 if quick else N_VMS
    pending = overcommit_specs(n_vms, seed, quick)
    residents: list[FleetVm] = []

    result = OvercommitRunResult(
        ratio=ratio,
        n_hosts=N_HOSTS,
        n_vms=n_vms,
        seed=seed,
        epochs=epochs,
        rounds_per_epoch=rounds_per_epoch,
        capacity_pages=sum(h.capacity_pages for h in hosts),
    )
    start_us = clock.now_us

    for _epoch in range(epochs):
        # Admission wave: pessimistic estimates for never-sampled specs,
        # the residents' (shrinking) histories for the pressure they add.
        placed, pending = pack(hosts, pending)
        residents.extend(placed)
        result.admitted_by_epoch.append(len(residents))
        # Workload epoch: everyone runs; sampling rounds count as load.
        for fvm in residents:
            fvm.sample_wss(WSS_INTERVALS)
            for _ in range(rounds_per_epoch):
                fvm.run_round()
        for h in hosts:
            result.peak_pressure = max(result.peak_pressure, h.pressure)
            if h.economics is not None:
                h.economics.rebalance()

    result.admitted = len(residents)
    result.rejected = len(pending)
    result.nominal_pages = {h.host_id: h.nominal_pages for h in hosts}
    for h in hosts:
        if h.economics is not None:
            result.reclaimed_pages += h.economics.reclaimed_pages
            result.refault_pages += h.economics.refault_pages
            result.refault_faults += h.economics.refault_faults
            result.pressure_events += h.economics.n_pressure_events
    result.total_rounds = sum(fvm.n_rounds for fvm in residents)
    result.total_accesses = sum(
        fvm.n_rounds * fvm.spec.writes_per_round for fvm in residents
    )
    result.total_us = clock.now_us - start_us
    return result


def exp_overcommit(config: RunConfig):
    """Registry entry: sweep the overcommit ratio, render the frontier."""
    from repro.experiments.runner import ExperimentOutput
    from repro.experiments.tables import render_table

    ratios = list(config.overcommit_ratios)
    run = memoized(run_overcommit_scenario)
    results = [run(ratio, quick=config.quick) for ratio in ratios]
    headers = ["ratio", "admitted", "rejected", "nominal/cap", "reclaimed",
               "refaults", "refault/1k", "round us", "peak press"]
    rows = []
    for r in results:
        nominal = sum(r.nominal_pages.values())
        rows.append([
            f"{r.ratio:.1f}",
            r.admitted,
            r.rejected,
            f"{nominal}/{r.capacity_pages}",
            r.reclaimed_pages,
            r.refault_pages,
            f"{r.refaults_per_1k_accesses:.1f}",
            f"{r.mean_round_us:.1f}",
            f"{r.peak_pressure:.2f}",
        ])
    text = render_table(
        headers, rows,
        f"Overcommit frontier: {results[0].n_vms} tenants offered to "
        f"{N_HOSTS} hosts (seed {SEED}) — admission vs refault cost",
    )
    return ExperimentOutput(
        "overcommit", headers, rows, text,
        extra={
            "ratios": ratios,
            "refaults_per_1k": {
                f"{r.ratio:.1f}": r.refaults_per_1k_accesses for r in results
            },
            "admitted": {f"{r.ratio:.1f}": r.admitted for r in results},
            "admitted_by_epoch": {
                f"{r.ratio:.1f}": r.admitted_by_epoch for r in results
            },
        },
    )
