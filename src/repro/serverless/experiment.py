"""The ``serverless`` experiment: technique survival under churn.

Runs the same seeded bursty multi-tenant schedule under several tracking
modes and tabulates what the churn profile costs each of them: thousands
of short-lived instances mean per-instance attach/detach overhead that
migration-style workloads amortize away.  The merged snapshot digest is
asserted identical across modes — the byte-exact diff filter makes the
merged image a pure function of the schedule, so a digest mismatch means
a tracker dropped dirty pages.

The instance count is ``RunConfig.serverless_instances`` (CLI
``--instances``); tenants, region size and seed are the
:class:`~repro.serverless.driver.ServerlessConfig` defaults, and the
compared modes are :data:`MODES`.
"""

from __future__ import annotations

from repro.config import RunConfig
from repro.errors import WorkloadError
from repro.experiments.cache import memoized
from repro.serverless.driver import (
    ServerlessConfig,
    ServerlessRunResult,
    run_serverless,
)

__all__ = ["exp_serverless", "serverless_result"]

#: The tracking modes whose merged snapshots are compared.
MODES = ("oracle", "epml", "spml", "proc")


@memoized
def serverless_result(mode: str, cfg: ServerlessConfig) -> ServerlessRunResult:
    """One serverless run on a fresh stack, keyed by the whole ``cfg``."""
    from repro.experiments.harness import build_stack

    # Host sized with headroom: instances are sequential, so the
    # footprint is one region + kernel structures, not the sum.
    stack = build_stack(vm_mb=64)
    return run_serverless(stack.kernel, mode, cfg)


def exp_serverless(config: RunConfig):
    """Registry entry: the churn comparison rendered as a table."""
    from repro.experiments.runner import ExperimentOutput
    from repro.experiments.tables import fmt_ms, render_table

    cfg = ServerlessConfig(n_instances=config.serverless_instances)
    results = {m: serverless_result(m, cfg) for m in MODES}
    digests = {r.combined_digest for r in results.values()}
    if len(digests) != 1:
        raise WorkloadError(
            "merged snapshots diverged across modes: "
            + ", ".join(f"{m}={r.combined_digest}" for m, r in results.items())
        )
    headers = [
        "mode", "instances", "bursts", "diff pages", "merged pages",
        "tracker ms", "total ms", "digest",
    ]
    rows = [
        [
            m,
            r.n_instances,
            r.n_bursts,
            r.n_pages_diffed,
            r.n_pages_merged,
            fmt_ms(r.tracker_us),
            fmt_ms(r.total_us),
            r.combined_digest.split("|")[0].split(":")[1],
        ]
        for m, r in results.items()
    ]
    text = render_table(
        headers, rows,
        f"Serverless churn: {cfg.n_instances} instances, "
        f"{cfg.n_tenants} tenants, {cfg.region_pages}-page regions "
        f"(seed {cfg.seed})",
    )
    return ExperimentOutput(
        "serverless", headers, rows, text,
        extra={
            "config": cfg,
            "digest": next(iter(digests)),
            "tracker_us": {m: r.tracker_us for m, r in results.items()},
            "versions": {m: r.versions for m, r in results.items()},
        },
    )
