"""The five benchmark workloads: parameters, operations and invariants.

Every workload is a fixed list of *operations*, each one call into the
program's public harness functions.  ``PARAMS`` holds every input knob, so
the result file records exactly what ran.  Nothing here imports ``repro``
at module level: the parent process reads ``PARAMS`` without paying for
the simulator, and the child times its own imports as set-up.

Why each workload exists (which layers it stresses, and which it is the
control for) is in README.md.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

DEFAULT_SEED = 1234

PARAMS: dict[str, dict] = {
    "tracking-sweep": {
        "function": "run_microbench",
        "techniques": ["proc", "ufd", "spml", "epml"],
        "mem_mb": [1, 10, 100, 1024],
        "passes": 10,
    },
    "gc-heap": {
        "function": "run_boehm",
        "app": "gcbench",
        "config": "medium",
        "techniques": ["proc", "spml", "epml"],
        "scale": 0.005,
        "threshold_bytes": 1 << 20,
    },
    "checkpoint": {
        "function": "run_criu",
        "apps": ["baby", "stdhash", "stdtree", "tiny"],
        "config": "large",
        "techniques": ["proc", "spml", "epml"],
        "scale": 0.1,
    },
    "snapshot-churn": {
        "function": "serverless_result",
        "modes": ["oracle", "epml", "spml", "proc"],
        "n_instances": 1200,
        "n_tenants": 4,
        "region_pages": 64,
    },
    "fleet-drain": {
        "function": "run_fleet_scenario + run_overcommit_scenario",
        "fleet_hosts": 4,
        "fleet_vms": 96,
        "overcommit_ratios": [1.0, 1.5, 2.0, 2.5],
        "quick": False,
    },
}

#: Workloads whose inputs the program derives from the app name, so their
#: outputs (and reference digests) are the same for every ``--seed``.
SEED_INDEPENDENT = frozenset({"tracking-sweep", "gc-heap", "checkpoint"})

Ops = dict[str, Callable[[], object]]
#: Maps op label -> reason, for every operation whose result breaks an
#: invariant of the workload.
Invariants = Callable[[dict[str, object]], dict[str, str]]


def _none(results: dict[str, object]) -> dict[str, str]:
    return {}


def tracking_sweep(p: dict, seed: int) -> tuple[Ops, Invariants]:
    from repro.experiments.harness import run_microbench

    ops = {
        f"{t}/{mb}mb": partial(run_microbench, t, mb, passes=p["passes"])
        for t in p["techniques"]
        for mb in p["mem_mb"]
    }
    return ops, _none


def gc_heap(p: dict, seed: int) -> tuple[Ops, Invariants]:
    from repro.experiments.harness import run_boehm
    from repro.trackers.boehm import GcParams

    params = GcParams(threshold_bytes=p["threshold_bytes"])
    ops = {
        t: partial(run_boehm, p["app"], p["config"], t, scale=p["scale"],
                   gc_params=params)
        for t in p["techniques"]
    }
    return ops, _none


def checkpoint(p: dict, seed: int) -> tuple[Ops, Invariants]:
    from repro.experiments.harness import run_criu

    ops = {
        f"{app}/{t}": partial(run_criu, app, p["config"], t, scale=p["scale"])
        for app in p["apps"]
        for t in p["techniques"]
    }

    def no_tracking_drops(results: dict[str, object]) -> dict[str, str]:
        return {
            label: f"dump {i} dropped {d.tracking_drops} dirty-page records"
            for label, r in results.items()
            for i, d in enumerate(r.dumps)
            if d.tracking_drops != 0
        }

    return ops, no_tracking_drops


def snapshot_churn(p: dict, seed: int) -> tuple[Ops, Invariants]:
    from repro.serverless.driver import ServerlessConfig
    from repro.serverless.experiment import serverless_result

    cfg = ServerlessConfig(
        n_instances=p["n_instances"], n_tenants=p["n_tenants"],
        region_pages=p["region_pages"], seed=seed,
    )
    ops = {m: partial(serverless_result, m, cfg) for m in p["modes"]}

    def same_merged_snapshot(results: dict[str, object]) -> dict[str, str]:
        digests = {label: r.combined_digest for label, r in results.items()}
        if len(set(digests.values())) <= 1:
            return {}
        return {label: f"merged snapshots differ across modes: {digests}"
                for label in results}

    return ops, same_merged_snapshot


def fleet_drain(p: dict, seed: int) -> tuple[Ops, Invariants]:
    from repro.fleet.economics.experiment import run_overcommit_scenario
    from repro.fleet.experiment import run_fleet_scenario

    ops: Ops = {
        "fleet": partial(run_fleet_scenario, p["fleet_hosts"], p["fleet_vms"],
                         seed=seed, quick=p["quick"]),
    }
    for r in p["overcommit_ratios"]:
        ops[f"overcommit/{r}"] = partial(run_overcommit_scenario, r, seed=seed,
                                         quick=p["quick"])

    def integrity_ok(results: dict[str, object]) -> dict[str, str]:
        fleet = results.get("fleet")
        bad = [] if fleet is None else [
            r.vm_name for r in fleet.reports if not r.integrity_ok
        ]
        return {"fleet": f"integrity check failed for {bad}"} if bad else {}

    return ops, integrity_ok


BUILDERS: dict[str, Callable[[dict, int], tuple[Ops, Invariants]]] = {
    "tracking-sweep": tracking_sweep,
    "gc-heap": gc_heap,
    "checkpoint": checkpoint,
    "snapshot-churn": snapshot_churn,
    "fleet-drain": fleet_drain,
}


def build(name: str, seed: int) -> tuple[Ops, Invariants]:
    """The operations of workload ``name`` at ``seed``, and its invariants."""
    return BUILDERS[name](PARAMS[name], seed)
