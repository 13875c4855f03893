"""Fault-matrix experiment: capture completeness under injected faults.

Extends the paper's evaluation question 3 ("to what extent are the
techniques able to capture all dirty pages?") to a hostile environment:
every fault site fires at a swept rate while SPML, EPML (both with
``resync_on_loss``) and the fallback chain track a random-write workload,
each run audited against the oracle.  The claim under test is the
robustness contract: whatever the fault rate, **no dirty page is lost
silently** — capture dips are always accompanied by surfaced drop
counters, and the recovery machinery (retries, conservative resyncs,
lost-IPI sweeps, technique fallbacks) keeps the capture rate at 100%.

The chaos seed is the constant :data:`CHAOS_SEED`, so every run replays
the exact same fault sequence.
"""

from __future__ import annotations

import numpy as np

from repro.config import RunConfig
from repro.core.tracking import Technique, make_tracker
from repro.experiments.harness import build_stack
from repro.experiments.tables import render_table
from repro.faults.auditor import CompletenessAuditor
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec

__all__ = ["chaos_plan", "run_fault_cell", "exp_fault_matrix", "CHAOS_SEED"]

CHAOS_SEED = 1234

RATES = [0.0, 0.01, 0.05, 0.2]
QUICK_RATES = [0.0, 0.05]
TECHNIQUES = (Technique.SPML, Technique.EPML, Technique.FALLBACK)


def chaos_plan(rate: float, seed: int = CHAOS_SEED) -> FaultPlan:
    """Every fault site armed at the same per-opportunity rate."""
    return FaultPlan([FaultSpec(site, rate) for site in FaultSite], seed=seed)


def run_fault_cell(
    technique: Technique,
    rate: float,
    seed: int = CHAOS_SEED,
    n_pages: int = 4096,
    rounds: int = 8,
) -> dict:
    """One audited tracker run under one fault rate; returns cell metrics."""
    stack = build_stack(vm_mb=n_pages / 256 * 1.5 + 64)
    proc = stack.kernel.spawn("app", n_pages=n_pages)
    proc.space.add_vma(n_pages)
    # Prefault the whole VMA so demand paging happens up front; faults
    # then hit the steady-state tracking paths the matrix is probing.
    stack.kernel.access(proc, np.arange(n_pages), True)

    kwargs = {}
    if technique in (Technique.SPML, Technique.EPML):
        kwargs["resync_on_loss"] = True
    tracker = make_tracker(technique, stack.kernel, proc, **kwargs)
    auditor = CompletenessAuditor(stack.kernel, proc, tracker)
    rng = np.random.default_rng(seed)
    acc = {"n_resyncs": 0, "n_retries": 0, "n_recovered_ipis": 0}
    plan = chaos_plan(rate, seed)
    with plan.active() as inj:
        auditor.start()
        for _ in range(rounds):
            stack.kernel.access(
                proc, rng.integers(0, n_pages, size=n_pages // 4), True
            )
            auditor.collect()
            stats = getattr(tracker, "last_stats", None)
            for key in acc:
                acc[key] += int(getattr(stats, key, 0) or 0)
    # The final flush in stop() runs fault-free (the plan deactivated on
    # context exit), mirroring an operator draining after quiescing.
    report = auditor.stop()
    for key in acc:
        report.recovery[key] += acc[key]
    return {
        "technique": technique.value,
        "rate": rate,
        "capture_rate": report.capture_rate,
        "n_truth": report.n_truth,
        "n_missed": report.n_missed,
        "resyncs": report.recovery["n_resyncs"],
        "retries": report.recovery["n_retries"],
        "recovered_ipis": report.recovery["n_recovered_ipis"],
        "fallbacks": report.recovery["n_fallbacks"],
        "surfaced_drops": report.total_surfaced,
        "silent_loss": report.silent_loss,
        "injector_fires": inj.total_fires(),
    }


def exp_fault_matrix(config: RunConfig):
    """Fault rates x techniques; every cell must be silent-loss-free."""
    from repro.experiments.runner import ExperimentOutput

    rates = QUICK_RATES if config.quick else RATES
    n_pages = 1024 if config.quick else 4096
    rounds = 4 if config.quick else 8
    headers = ["rate", "technique", "capture %", "resyncs", "retries",
               "recovered IPIs", "fallbacks", "surfaced drops", "silent loss"]
    rows = []
    cells = []
    for rate in rates:
        for technique in TECHNIQUES:
            cell = run_fault_cell(
                technique, rate, n_pages=n_pages, rounds=rounds
            )
            cells.append(cell)
            rows.append([
                f"{rate:.2f}", cell["technique"],
                f"{cell['capture_rate'] * 100:.2f}",
                cell["resyncs"], cell["retries"], cell["recovered_ipis"],
                cell["fallbacks"], cell["surfaced_drops"],
                "YES" if cell["silent_loss"] else "no",
            ])
    text = render_table(
        headers, rows,
        f"Fault matrix: capture under injected faults (seed {CHAOS_SEED})",
    )
    return ExperimentOutput("fault_matrix", headers, rows, text,
                            extra={"cells": cells, "seed": CHAOS_SEED})
