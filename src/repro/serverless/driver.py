"""Serverless workload driver: seeded bursty multi-tenant traffic.

:class:`TrafficGenerator` produces a deterministic invocation schedule —
bursts of short-lived function calls, each burst skewed toward one "hot"
tenant (the production serverless arrival pattern: cold bases with
correlated spikes).  :func:`run_serverless` executes the schedule on one
guest kernel:

* each tenant has ``plan_variants`` seeded access plans (:func:`tenant_plans`):
  the sorted pages a function reads and the sorted subset it writes;
* every invocation runs a :class:`~repro.serverless.instance.
  FunctionInstance` lifecycle against its tenant's current snapshot;
* the commit sequence is the sequential completion order (the simulator
  runs one instance at a time per kernel; SMP affects *where* an
  instance's accesses land, not the commit order);
* at each burst boundary the tenant's diffs are merged last-writer-wins
  and the snapshot re-frozen — the next burst restores from the merged
  image.

Everything derives from ``seed`` through ``np.random.default_rng`` and
:func:`~repro.serverless.snapshot.stable_token`-style crc mixing, so the
same seed yields a byte-identical merged snapshot per tenant, across
runs, techniques, and ``PYTHONHASHSEED`` values — the determinism claim
``bench_serverless.py`` pins.

Arrival gaps shape burst structure and are reported as statistics; they
are *not* charged to the simulated clock (the clock measures execution
cost, and idle gap time would drown the tracker signal the benchmark
compares).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.clock import World
from repro.core.costs import EV_SNAPSHOT_COPY
from repro.errors import WorkloadError
from repro.guest.kernel import GuestKernel
from repro.serverless.instance import FunctionInstance
from repro.serverless.snapshot import Snapshot

__all__ = [
    "Invocation",
    "ServerlessConfig",
    "ServerlessRunResult",
    "TrafficGenerator",
    "run_serverless",
]


@dataclass(frozen=True)
class Invocation:
    """One scheduled function call."""

    tenant: str
    tenant_idx: int
    request_id: int
    plan_idx: int
    arrival_us: float


@dataclass(frozen=True)
class ServerlessConfig:
    """Knobs for one serverless run (all deterministic given ``seed``)."""

    n_instances: int = 200
    n_tenants: int = 4
    region_pages: int = 64
    seed: int = 1234
    mean_burst: int = 16
    hot_tenant_bias: float = 0.7
    plan_variants: int = 3
    touch_frac: float = 0.5  # fraction of the region a plan touches
    write_frac: float = 0.5  # fraction of touched pages written
    compute_us: float = 50.0  # per-phase compute between access batches
    mean_gap_us: float = 2_000.0  # inter-burst arrival gap (stats only)

    def __post_init__(self) -> None:
        if self.n_instances <= 0 or self.n_tenants <= 0:
            raise WorkloadError("n_instances and n_tenants must be > 0")
        if self.region_pages <= 0 or self.plan_variants <= 0:
            raise WorkloadError("region_pages and plan_variants must be > 0")
        if not 0.0 <= self.hot_tenant_bias <= 1.0:
            raise WorkloadError("hot_tenant_bias must be in [0, 1]")


class TrafficGenerator:
    """Deterministic bursty multi-tenant invocation schedule."""

    def __init__(self, cfg: ServerlessConfig) -> None:
        self.cfg = cfg
        self.tenants = [f"t{i}" for i in range(cfg.n_tenants)]

    def bursts(self) -> list[list[Invocation]]:
        """The full schedule as a list of bursts, in arrival order."""
        cfg = self.cfg
        rng = np.random.default_rng([cfg.seed, 0xB17B])
        bursts: list[list[Invocation]] = []
        request_id = 0
        now_us = 0.0
        while request_id < cfg.n_instances:
            now_us += float(rng.exponential(cfg.mean_gap_us))
            size = min(
                1 + int(rng.poisson(max(cfg.mean_burst - 1, 0))),
                cfg.n_instances - request_id,
            )
            hot = int(rng.integers(cfg.n_tenants))
            burst: list[Invocation] = []
            for _ in range(size):
                if cfg.n_tenants > 1 and rng.random() >= cfg.hot_tenant_bias:
                    tenant_idx = int(rng.integers(cfg.n_tenants))
                else:
                    tenant_idx = hot
                now_us += float(rng.exponential(cfg.mean_gap_us / 50.0))
                burst.append(
                    Invocation(
                        tenant=self.tenants[tenant_idx],
                        tenant_idx=tenant_idx,
                        request_id=request_id,
                        plan_idx=int(rng.integers(cfg.plan_variants)),
                        arrival_us=now_us,
                    )
                )
                request_id += 1
            bursts.append(burst)
        return bursts


def tenant_plans(
    cfg: ServerlessConfig, tenant_idx: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The tenant's plan variants as ``(touched, written)`` VPN arrays,
    each sorted and distinct (built once, reused by every instance)."""
    plans: list[tuple[np.ndarray, np.ndarray]] = []
    n_touch = max(1, int(cfg.region_pages * cfg.touch_frac))
    n_write = max(1, int(n_touch * cfg.write_frac))
    for variant in range(cfg.plan_variants):
        rng = np.random.default_rng([cfg.seed, 0x9A75, tenant_idx, variant])
        touched = np.sort(
            rng.choice(cfg.region_pages, size=n_touch, replace=False)
        ).astype(np.int64)
        written = np.sort(
            rng.choice(touched, size=n_write, replace=False)
        ).astype(np.int64)
        plans.append((touched, written))
    return plans


@dataclass
class ServerlessRunResult:
    """What one :func:`run_serverless` call did and cost."""

    mode: str
    cfg: ServerlessConfig
    n_instances: int
    n_bursts: int
    digests: dict[str, str]  # tenant -> final frozen-snapshot digest
    versions: dict[str, int]  # tenant -> final snapshot version
    instances_per_tenant: dict[str, int]
    n_pages_diffed: int  # pages across all extracted diffs
    n_pages_merged: int  # pages applied across all merges
    total_us: float
    tracker_us: float
    tracked_us: float
    mean_gap_us: float  # observed mean inter-arrival gap (schedule stat)
    events: dict[str, int] = field(default_factory=dict)

    @property
    def combined_digest(self) -> str:
        """One fingerprint over every tenant's final image (sorted)."""
        return "|".join(f"{t}:{d}" for t, d in sorted(self.digests.items()))


def run_serverless(
    kernel: GuestKernel,
    mode: str,
    cfg: ServerlessConfig,
) -> ServerlessRunResult:
    """Run the full schedule on ``kernel`` under tracking ``mode``."""
    gen = TrafficGenerator(cfg)
    bursts = gen.bursts()
    snapshots = {t: Snapshot.base(f"fn-{t}", cfg.region_pages) for t in gen.tenants}
    plans = {i: tenant_plans(cfg, i) for i in range(cfg.n_tenants)}
    per_tenant = dict.fromkeys(gen.tenants, 0)
    n_pages_diffed = 0
    n_pages_merged = 0
    commit_seq = 0
    start = kernel.clock.snapshot()
    for burst in bursts:
        by_tenant: dict[str, list] = {}
        for inv in burst:
            instance = FunctionInstance(
                kernel,
                mode,
                snapshots[inv.tenant],
                inv.tenant,
                inv.request_id,
                plans[inv.tenant_idx][inv.plan_idx],
                cfg.compute_us,
            )
            diff = instance.run(commit_seq)
            commit_seq += 1
            n_pages_diffed += diff.n_pages
            per_tenant[inv.tenant] += 1
            by_tenant.setdefault(inv.tenant, []).append(diff)
        # Merge at the burst boundary, tenants in name order (the diffs
        # themselves carry the commit order; tenant iteration order only
        # affects clock attribution, and sorting makes that deterministic
        # too).
        for tenant in sorted(by_tenant):
            diffs = by_tenant[tenant]
            n_apply = sum(d.n_pages for d in diffs)
            kernel.clock.charge(
                kernel.costs.params.snapshot_copy_us_per_page * n_apply,
                World.TRACKER,
                EV_SNAPSHOT_COPY,
                n_apply,
            )
            snapshots[tenant].merge(diffs)
            n_pages_merged += n_apply
            snapshots[tenant] = snapshots[tenant].freeze()
    elapsed = kernel.clock.since(start)
    arrivals = [inv.arrival_us for burst in bursts for inv in burst]
    gaps = np.diff(np.asarray(arrivals)) if len(arrivals) > 1 else np.asarray([0.0])
    return ServerlessRunResult(
        mode=mode,
        cfg=cfg,
        n_instances=commit_seq,
        n_bursts=len(bursts),
        digests={t: s.digest() for t, s in snapshots.items()},
        versions={t: s.version for t, s in snapshots.items()},
        instances_per_tenant=per_tenant,
        n_pages_diffed=n_pages_diffed,
        n_pages_merged=n_pages_merged,
        total_us=elapsed.now_us,
        tracker_us=elapsed.world_us[World.TRACKER.value],
        tracked_us=elapsed.world_us[World.TRACKED.value],
        mean_gap_us=float(gaps.mean()),
        events=elapsed.event_count,
    )
