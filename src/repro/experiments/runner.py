"""Experiment registry: one entry per paper table/figure.

Each ``exp_*`` function takes the run's :class:`~repro.config.RunConfig`,
regenerates one evaluation artifact and returns a
:class:`ExperimentOutput` with structured rows plus a rendered text table.
The benchmark suite (``benchmarks/``) wraps these; they can also be run
directly::

    python -m repro.experiments.runner table1 --quick
    python -m repro.experiments.runner all

``--quick`` shrinks sizes/scales so everything completes in seconds; the
defaults reproduce the paper's configurations (Table III sizes, 1 MB-1 GB
sweeps).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from repro.config import RunConfig, default_n_vcpus
from repro.core import formulas
from repro.core.calibration import TABLE_VB_MS, TABLE_VB_SIZES_MB, mb_to_pages
from repro.core.costs import CostModel
from repro.core.tracking import Technique
from repro.errors import ConfigurationError
from repro.experiments.cache import EXPERIMENT_CACHE
from repro.experiments.faultmatrix import exp_fault_matrix
from repro.experiments.harness import run_boehm, run_criu, run_microbench
from repro.experiments.tables import fmt_ms, fmt_pct, render_table
from repro.fleet.economics.experiment import exp_overcommit
from repro.fleet.experiment import exp_fleet
from repro.obs import trace as otr
from repro.serverless.experiment import exp_serverless
from repro.trackers.boehm import GcParams

__all__ = ["ExperimentOutput", "EXPERIMENTS", "run_experiment", "main"]

SIZES_MB = list(TABLE_VB_SIZES_MB)  # 1 .. 1024
QUICK_SIZES_MB = [1, 10, 100]

#: Paper reference values for EXPERIMENTS.md comparisons.
PAPER_TABLE1 = {
    # (row, size_mb) -> overhead %
    ("tracked-ufd", 1): 195, ("tracked-ufd", 1024): 1463,
    ("tracked-proc", 1): 104, ("tracked-proc", 1024): 335,
    ("tracker-ufd", 1): 93, ("tracker-ufd", 1024): 1349,
    ("tracker-proc", 1): 46, ("tracker-proc", 1024): 147,
}

CRIU_APPS = ["baby", "cache", "stdhash", "stdtree", "tiny",
             "histogram", "kmeans", "matrix-multiply", "pca",
             "string-match", "word-count"]
BOEHM_APPS = ["gcbench", "histogram", "kmeans", "matrix-multiply", "pca",
              "string-match", "word-count"]


@dataclass
class ExperimentOutput:
    experiment: str
    headers: list[str]
    rows: list[list[object]]
    text: str
    extra: dict = field(default_factory=dict)

    def print(self) -> None:  # noqa: A003 - mirrors the CLI verb
        print(self.text)


# ---------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------
def exp_table1(config: RunConfig) -> ExperimentOutput:
    """Table I: % overhead of ufd and /proc on Tracked and Tracker."""
    sizes = QUICK_SIZES_MB if config.quick else SIZES_MB
    results = {
        (t, mb): run_microbench(t, mem_mb=mb)
        for t in (Technique.UFD, Technique.PROC)
        for mb in sizes
    }
    headers = ["row"] + [f"{mb}MB" for mb in sizes]
    rows = []
    for side in ("tracked", "tracker"):
        for t in (Technique.UFD, Technique.PROC):
            vals = []
            for mb in sizes:
                r = results[(t, mb)]
                pct = (
                    r.overhead_tracked_pct if side == "tracked"
                    else r.overhead_tracker_pct
                )
                vals.append(fmt_pct(pct))
            rows.append([f"{side}-{t.value}"] + vals)
    text = render_table(headers, rows,
                        "Table I: overhead (%) of ufd/proc dirty tracking")
    return ExperimentOutput("table1", headers, rows, text,
                            extra={"paper": PAPER_TABLE1})


# ---------------------------------------------------------------------
# Table IV: formula validation
# ---------------------------------------------------------------------
def exp_table4(config: RunConfig) -> ExperimentOutput:
    """Table IV: estimated vs measured times for SPML and /proc (CRIU
    over tkrzw-baby), reproducing the §VI-B validation."""
    scale = 0.01 if config.quick else 0.05
    rows = []
    for technique in (Technique.SPML, Technique.PROC):
        r = run_criu("baby", "large", technique, scale=scale)
        snap_events = r.events
        cm = CostModel()
        mem_pages = mb_to_pages(848.56)  # baby Large footprint
        from repro.core.clock import ClockSnapshot

        snap = ClockSnapshot(0.0, {}, {}, snap_events)
        # C_p (the tracking routine) is the image writing alone; for
        # /proc the MW phase also contains the pagemap walk, which
        # belongs to C_x (Formula 2), so derive C_p from the disk events.
        routine_us = (
            snap_events.get("disk_write", 0) * cm.params.disk_write_us_per_page
        )
        est = formulas.estimate(
            technique, snap, cm, mem_pages,
            tracked_ideal_us=r.ideal_us, routine_us=routine_us,
        )
        acc_tker = formulas.accuracy_pct(est.tracker_us, r.tracker_us)
        acc_tked = formulas.accuracy_pct(est.tracked_us, r.tracked_us)
        rows.append([
            technique.value,
            fmt_ms(r.tracker_us), fmt_ms(est.tracker_us), f"{acc_tker:.1f}",
            fmt_ms(r.tracked_us), fmt_ms(est.tracked_us), f"{acc_tked:.1f}",
        ])
    headers = ["technique", "E(C_tker) meas ms", "est ms", "acc %",
               "E(C_tked_tker) meas ms", "est ms", "acc %"]
    text = render_table(headers, rows,
                        "Table IV: Formula 1-4 validation (CRIU over baby)")
    return ExperimentOutput("table4", headers, rows, text,
                            extra={"paper_accuracy": {"tracker": 96.34,
                                                      "tracked": 99.0}})


# ---------------------------------------------------------------------
# Table V: basic costs
# ---------------------------------------------------------------------
def exp_table5(config: RunConfig) -> ExperimentOutput:
    """Table Vb: memory-dependent metric costs, measured in-simulator vs
    the paper's published values."""
    sizes = QUICK_SIZES_MB if config.quick else SIZES_MB
    metric_events = {
        "m15_clear_refs": ("proc", "clear_refs"),
        "m16_pt_walk_user": ("proc", "pt_walk_user"),
        "m5_pf_kernel": ("proc", "pf_kernel"),
        "m6_pf_user": ("ufd", "pf_user"),
        "m18_rb_copy": ("epml", "rb_copy"),
        "m17_reverse_map": ("spml", "reverse_map"),
    }
    runs = {
        t: {mb: run_microbench(t, mem_mb=mb) for mb in sizes}
        for t in ("proc", "ufd", "spml", "epml")
    }
    headers = ["metric"] + [f"{mb}MB" for mb in sizes] + ["paper@1GB(ms)"]
    rows = []
    for metric, (tech, event) in metric_events.items():
        vals = []
        for mb in sizes:
            r = runs[tech][mb]
            # Mean per-event cost; fault-style metrics report one
            # full-array sweep's worth, walk-style metrics one call.
            per = r.event_us.get(event, 0.0) / max(1, r.events.get(event, 1))
            if metric in ("m15_clear_refs", "m16_pt_walk_user"):
                us = per
            else:
                us = per * mb_to_pages(mb)
            vals.append(fmt_ms(us))
        paper_1g = TABLE_VB_MS[metric][-1]
        rows.append([metric] + vals + [f"{paper_1g:,.3f}"])
    text = render_table(headers, rows,
                        "Table Vb: per-sweep metric costs (ms), measured")
    return ExperimentOutput("table5", headers, rows, text)


# ---------------------------------------------------------------------
# Table VI: metric classification (derived)
# ---------------------------------------------------------------------
def exp_table6(config: RunConfig) -> ExperimentOutput:
    """Table VI: which metrics each technique involves, measured by
    observing which events fire under each technique."""
    sizes_mb = 10
    rows = []
    interesting = [
        "context_switch", "pf_kernel", "pf_user", "clear_refs",
        "pt_walk_user", "reverse_map", "rb_copy", "vmread", "vmwrite",
        "hc_init_pml", "hc_init_pml_shadow", "enable_logging",
        "disable_logging", "ufd_write_protect", "ioctl_init_pml",
    ]
    results = {
        t: run_microbench(t, mem_mb=sizes_mb)
        for t in ("proc", "ufd", "spml", "epml")
    }
    for event in interesting:
        row = [event]
        for t in ("proc", "ufd", "spml", "epml"):
            row.append("x" if results[t].events.get(event, 0) > 0 else "")
        rows.append(row)
    headers = ["metric/event", "proc", "ufd", "spml", "epml"]
    text = render_table(headers, rows,
                        "Table VI: events observed per technique")
    return ExperimentOutput("table6", headers, rows, text)


# ---------------------------------------------------------------------
# Fig. 3: SPML collection breakdown
# ---------------------------------------------------------------------
def exp_fig3(config: RunConfig) -> ExperimentOutput:
    """Fig. 3: reverse mapping / PT walk / RB copy shares of SPML
    collection (reverse mapping is the bottleneck, >= ~68%)."""
    sizes = QUICK_SIZES_MB if config.quick else SIZES_MB
    headers = ["size", "reverse_map ms", "pt_walk ms", "rb_copy ms",
               "revmap share %"]
    rows = []
    shares = []
    for mb in sizes:
        r = run_microbench("spml", mem_mb=mb)
        rev = r.event_us.get("reverse_map", 0.0)
        walk = r.event_us.get("pt_walk_user", 0.0)
        copy = r.event_us.get("rb_copy", 0.0)
        total = rev + walk + copy
        share = rev / total * 100 if total else 0.0
        shares.append(share)
        rows.append([f"{mb}MB", fmt_ms(rev), fmt_ms(walk), fmt_ms(copy),
                     f"{share:.1f}"])
    text = render_table(headers, rows, "Fig. 3: SPML collection breakdown")
    return ExperimentOutput("fig3", headers, rows, text,
                            extra={"mean_revmap_share_pct": float(np.mean(shares))})


# ---------------------------------------------------------------------
# Fig. 4: micro-benchmark slowdowns
# ---------------------------------------------------------------------
def exp_fig4(config: RunConfig) -> ExperimentOutput:
    """Fig. 4: slowdown of each technique on the micro-benchmark."""
    sizes = QUICK_SIZES_MB if config.quick else SIZES_MB
    headers = ["size"] + [t.value for t in
                          (Technique.PROC, Technique.UFD, Technique.SPML,
                           Technique.EPML)]
    rows = []
    series: dict[str, list[float]] = {}
    for mb in sizes:
        row = [f"{mb}MB"]
        for t in ("proc", "ufd", "spml", "epml"):
            r = run_microbench(t, mem_mb=mb)
            row.append(f"{r.slowdown_tracked:.2f}x")
            series.setdefault(t, []).append(r.slowdown_tracked)
        rows.append(row)
    text = render_table(headers, rows,
                        "Fig. 4: tracked slowdown per technique")
    return ExperimentOutput("fig4", headers, rows, text, extra={"series": series})


# ---------------------------------------------------------------------
# Fig. 5 / Fig. 6: Boehm
# ---------------------------------------------------------------------
def _boehm_matrix(quick: bool, configs: tuple[str, ...]) -> dict:
    # No matrix-level cache: run_boehm is memoized, so fig5/fig6 dedup
    # through the same mechanism as the benchmark suite.
    apps = ["gcbench", "matrix-multiply"] if quick else BOEHM_APPS
    gc_params = GcParams(threshold_bytes=1 * 1024 * 1024)

    def scale_for(app: str, config: str) -> float:
        if quick:
            return 0.002
        if app == "gcbench":
            # GCBench's allocation storm is iteration-bound; Phoenix apps
            # are footprint-bound and run at full scale.
            return {"small": 0.02, "medium": 0.005, "large": 0.002}[config]
        return 1.0

    out = {}
    for app in apps:
        for config in configs:
            for t in ("proc", "spml", "epml"):
                out[(app, config, t)] = run_boehm(
                    app, config, t, scale=scale_for(app, config),
                    gc_params=gc_params,
                )
    return out


def exp_fig5(config: RunConfig) -> ExperimentOutput:
    """Fig. 5: Boehm GC time per technique (first cycle highlighted)."""
    configs = ("small",) if config.quick else ("small", "medium", "large")
    results = _boehm_matrix(config.quick, configs)
    headers = ["app", "config", "technique", "cycles", "first ms",
               "rest ms", "total GC ms"]
    rows = []
    for (app, size, t), r in sorted(results.items()):
        first = r.cycles[0].pause_us if r.cycles else 0.0
        rest = sum(c.pause_us for c in r.cycles[1:])
        rows.append([app, size, t, len(r.cycles), fmt_ms(first),
                     fmt_ms(rest), fmt_ms(r.gc_us)])
    text = render_table(headers, rows, "Fig. 5: Boehm GC time per technique")
    return ExperimentOutput("fig5", headers, rows, text,
                            extra={"results": {
                                f"{a}/{c}/{t}": r.gc_us
                                for (a, c, t), r in results.items()}})


def exp_fig6(config: RunConfig) -> ExperimentOutput:
    """Fig. 6: Boehm's overhead on the tracked application."""
    configs = ("small",) if config.quick else ("small", "medium", "large")
    results = _boehm_matrix(config.quick, configs)
    headers = ["app", "config", "technique", "overhead on Tracked %"]
    rows = [
        [app, size, t, fmt_pct(r.overhead_tracked_pct)]
        for (app, size, t), r in sorted(results.items())
    ]
    text = render_table(headers, rows,
                        "Fig. 6: Boehm overhead on Tracked per technique")
    return ExperimentOutput("fig6", headers, rows, text)


# ---------------------------------------------------------------------
# Fig. 7 / 8 / 9: CRIU
# ---------------------------------------------------------------------
def _criu_matrix(quick: bool) -> dict:
    apps = ["baby", "histogram"] if quick else CRIU_APPS
    scale = 0.002 if quick else 0.02
    return {
        (app, t): run_criu(app, "large", t, scale=scale)
        for app in apps
        for t in ("proc", "spml", "epml")
    }


def exp_fig7(config: RunConfig) -> ExperimentOutput:
    """Fig. 7: CRIU memory-write (MW) time per technique."""
    results = _criu_matrix(config.quick)
    headers = ["app", "technique", "MW ms"]
    rows = [[app, t, fmt_ms(r.mw_us)] for (app, t), r in sorted(results.items())]
    text = render_table(headers, rows, "Fig. 7: CRIU memory-write time")
    return ExperimentOutput("fig7", headers, rows, text,
                            extra={"results": {
                                f"{a}/{t}": r.mw_us
                                for (a, t), r in results.items()}})


def exp_fig8(config: RunConfig) -> ExperimentOutput:
    """Fig. 8: CRIU total checkpoint time with the MD phase split out."""
    results = _criu_matrix(config.quick)
    headers = ["app", "technique", "MD ms", "MW ms", "total ckpt ms"]
    rows = [
        [app, t, fmt_ms(r.md_us), fmt_ms(r.mw_us), fmt_ms(r.checkpoint_us)]
        for (app, t), r in sorted(results.items())
    ]
    text = render_table(headers, rows, "Fig. 8: CRIU checkpoint time")
    return ExperimentOutput("fig8", headers, rows, text,
                            extra={"results": {
                                f"{a}/{t}": r.checkpoint_us
                                for (a, t), r in results.items()}})


def exp_fig9(config: RunConfig) -> ExperimentOutput:
    """Fig. 9: CRIU's overhead on the checkpointed application."""
    results = _criu_matrix(config.quick)
    headers = ["app", "technique", "overhead on Tracked %"]
    rows = [
        [app, t, fmt_pct(r.overhead_tracked_pct)]
        for (app, t), r in sorted(results.items())
    ]
    text = render_table(headers, rows, "Fig. 9: CRIU overhead on Tracked")
    return ExperimentOutput("fig9", headers, rows, text)


# ---------------------------------------------------------------------
# Fig. 10 / 11: scalability with #VMs
# ---------------------------------------------------------------------
def exp_fig10_11(config: RunConfig) -> ExperimentOutput:
    """Fig. 10/11: Boehm + histogram-Large while varying tenant VMs 1..5.

    Each VM has a dedicated CPU and its own PML state (the architectural
    reason the paper observes flat scalability); VMs are therefore
    independent simulator stacks and we report per-VM results.
    """
    scale = 0.002 if config.quick else 0.01
    size = "small" if config.quick else "large"
    headers = ["#VMs", "technique", "per-VM GC ms (min..max)",
               "per-VM overhead % (min..max)"]
    rows = []
    for n_vms in range(1, 6):
        for t in ("spml", "epml"):
            gcs, ovh = [], []
            for _ in range(n_vms):
                r = run_boehm("histogram", size, t, scale=scale,
                              gc_params=GcParams(threshold_bytes=1 << 20))
                gcs.append(r.gc_us)
                ovh.append(r.overhead_tracked_pct)
            rows.append([
                n_vms, t,
                f"{fmt_ms(min(gcs))}..{fmt_ms(max(gcs))}",
                f"{fmt_pct(min(ovh))}..{fmt_pct(max(ovh))}",
            ])
    text = render_table(headers, rows,
                        "Fig. 10/11: scalability with the number of VMs")
    return ExperimentOutput("fig10_11", headers, rows, text)


# ---------------------------------------------------------------------
# registry / CLI
# ---------------------------------------------------------------------
EXPERIMENTS: dict[str, Callable[[RunConfig], ExperimentOutput]] = {
    "table1": exp_table1,
    "table4": exp_table4,
    "table5": exp_table5,
    "table6": exp_table6,
    "fig3": exp_fig3,
    "fig4": exp_fig4,
    "fig5": exp_fig5,
    "fig6": exp_fig6,
    "fig7": exp_fig7,
    "fig8": exp_fig8,
    "fig9": exp_fig9,
    "fig10_11": exp_fig10_11,
    "fault_matrix": exp_fault_matrix,
    "fleet": exp_fleet,
    "overcommit": exp_overcommit,
    "serverless": exp_serverless,
}


def run_experiment(name: str, config: RunConfig = RunConfig()) -> ExperimentOutput:
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"choose from {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name](config)


#: ``--jobs`` work partition.  Experiments in one family share memoized
#: harness runs (the microbench grid, the Boehm/CRIU matrices), so they
#: must run in the same worker to dedup; families are disjoint in their
#: cache footprint and VM stacks are independent (the architectural fact
#: Fig. 10/11 relies on), making the fan-out embarrassingly parallel.
EXPERIMENT_FAMILIES: list[list[str]] = [
    ["table1", "table5", "table6", "fig3", "fig4"],
    ["table4"],
    ["fig5", "fig6"],
    ["fig7", "fig8", "fig9"],
    ["fig10_11"],
    ["fault_matrix"],
    ["fleet"],
    ["overcommit"],
    ["serverless"],
]


def _run_family(names: list[str], config: RunConfig) -> list[tuple[str, str]]:
    """Worker entry point: run one family serially, return rendered text."""
    return [(name, run_experiment(name, config).text) for name in names]


def _run_parallel(names: list[str], config: RunConfig, jobs: int) -> dict[str, str]:
    from concurrent.futures import ProcessPoolExecutor

    wanted = set(names)
    families = [
        [n for n in family if n in wanted] for family in EXPERIMENT_FAMILIES
    ]
    families = [f for f in families if f]
    texts: dict[str, str] = {}
    with ProcessPoolExecutor(max_workers=min(jobs, len(families))) as pool:
        for chunk in pool.map(_run_family, families, [config] * len(families)):
            texts.update(chunk)
    return texts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all"])
    parser.add_argument("--quick", action="store_true",
                        help="shrink sizes/scales for a fast run")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run experiment families in N worker processes "
                             "(VM stacks are independent; output order is "
                             "unchanged)")
    # RunConfig flags: stored under the field name, absent unless given.
    unset = argparse.SUPPRESS
    parser.add_argument("--hosts", dest="fleet_hosts", type=int, metavar="N",
                        default=unset, help="fleet experiment: number of hosts")
    parser.add_argument("--vms", dest="fleet_vms", type=int, metavar="N",
                        default=unset, help="fleet experiment: VMs to drain")
    parser.add_argument("--instances", dest="serverless_instances", type=int,
                        metavar="N", default=unset,
                        help="serverless experiment: function instances to run")
    parser.add_argument("--overcommit-ratio", dest="overcommit_ratios",
                        metavar="R[,R...]", default=unset,
                        help="overcommit experiment: comma-separated ratios")
    parser.add_argument("--metrics", action="store_true",
                        help="collect observability metrics during the runs "
                             "and print the registry afterwards (forces "
                             "--jobs 1: counters live in this process)")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="with --metrics: also write the event trace "
                             "as canonical JSONL to PATH")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    given = {f.name for f in fields(RunConfig)} & set(vars(args))
    try:
        config = RunConfig(**{k: getattr(args, k) for k in given})
        # REPRO_VCPUS and REPRO_EXPERIMENT_CACHE: a bad value is a usage error.
        default_n_vcpus()
        EXPERIMENT_CACHE.enabled
    except ConfigurationError as exc:
        parser.error(str(exc))
    if args.trace_out and not args.metrics:
        parser.error("--trace-out requires --metrics")
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    session: otr.TraceSession | None = None
    if args.metrics:
        # Worker processes would accumulate into their own registries and
        # throw them away, so metrics runs are serial by construction.
        # detail=False keeps per-page payloads out of long sweeps.
        session = otr.TraceSession(
            capacity=otr.ENV_SESSION_CAPACITY, detail=False
        )
    if args.jobs > 1 and len(names) > 1 and session is None:
        texts = _run_parallel(names, config, args.jobs)
    elif session is not None:
        # Nesting-safe activation: a REPRO_TRACE env session (or a
        # caller's) is restored afterwards, not clobbered.
        with session.active():
            texts = {n: run_experiment(n, config).text for n in names}
    else:
        texts = {n: run_experiment(n, config).text for n in names}
    for name in names:  # canonical order regardless of worker completion
        print(texts[name])
        print()
    if session is not None:
        print(session.metrics.render("Observability metrics"))
        if args.trace_out:
            from pathlib import Path

            session.trace.write_jsonl(Path(args.trace_out))
            print(f"wrote {args.trace_out} "
                  f"({len(session.trace.events)} events, "
                  f"{session.trace.n_dropped} dropped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
