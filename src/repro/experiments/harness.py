"""Experiment harness: build stacks, run Tracker over Tracked, measure.

Three runner families cover the paper's evaluation:

* :func:`run_microbench` — the array parser under one technique with one
  collection round (Table I, Table Vb, Fig. 3, Fig. 4);
* :func:`run_criu` — an application checkpointed while running, with the
  MD/MW phase split (Fig. 7, 8, 9, Table IV);
* :func:`run_boehm` — an application on the GC heap with per-cycle pause
  times (Fig. 5, 6, 10, 11).

Every runner first measures the workload's *ideal* execution time under
the zero-cost oracle, then re-runs it under the requested technique on a
fresh stack; overheads are reported the way the paper reports them
(§VI-B: the tracker's ideal time is the tracked application's ideal
time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.config import env_int
from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.core.tracking import Technique, make_tracker
from repro.experiments.cache import EXPERIMENT_CACHE
from repro.guest.kernel import GuestKernel
from repro.guest.scheduler import DEFAULT_SWITCH_INTERVAL_US
from repro.hypervisor.hypervisor import Hypervisor
from repro.trackers.boehm import BoehmGc, GcCycleReport, GcHeap, GcParams
from repro.trackers.criu import Criu, CriuReport
from repro.workloads import ArrayParser, FlatContext, GcContext, make_workload
from repro.workloads.base import Workload

__all__ = [
    "build_stack",
    "MicrobenchResult",
    "run_microbench",
    "CriuRunResult",
    "run_criu",
    "BoehmRunResult",
    "run_boehm",
]


def _default_n_vcpus() -> int:
    """Experiment-level vCPU count: ``REPRO_VCPUS`` (default 1, >= 1).

    Only :func:`build_stack` honours the environment variable — direct
    ``Hypervisor.create_vm`` callers (unit tests, golden-trace runs) pin
    their own count, so a CI matrix leg exporting ``REPRO_VCPUS=4`` scales
    the experiment stacks without perturbing exact-count tests.
    """
    return env_int("REPRO_VCPUS", 1, minimum=1)


def build_stack(
    vm_mb: float = 5 * 1024,
    host_mb: float | None = None,
    switch_interval_us: float = DEFAULT_SWITCH_INTERVAL_US,
    pml_buffer_entries: int = 512,
    n_vcpus: int | None = None,
) -> SimpleNamespace:
    """One host + one VM (the paper's setup: 1 dedicated vCPU, 5 GB).

    ``n_vcpus`` overrides the VM's vCPU count (SMP); when None it comes
    from ``REPRO_VCPUS`` (default 1, the paper's configuration).
    """
    clock = SimClock()
    costs = CostModel()
    hv = Hypervisor(clock, costs, host_mem_mb=host_mb or (vm_mb + 512))
    vm = hv.create_vm(
        "vm0",
        mem_mb=vm_mb,
        pml_buffer_entries=pml_buffer_entries,
        n_vcpus=n_vcpus if n_vcpus is not None else _default_n_vcpus(),
    )
    kernel = GuestKernel(vm, switch_interval_us=switch_interval_us)
    return SimpleNamespace(clock=clock, costs=costs, hv=hv, vm=vm, kernel=kernel)


# ---------------------------------------------------------------------
# micro-benchmark runner
# ---------------------------------------------------------------------
@dataclass
class MicrobenchResult:
    technique: Technique
    mem_mb: float
    ideal_us: float
    tracked_us: float  # wall time until the workload finished
    tracker_us: float  # TRACKER-world time (C_x + C_p)
    collect_us: float  # final collection phase alone
    n_dirty: int
    events: dict[str, int] = field(default_factory=dict)
    event_us: dict[str, float] = field(default_factory=dict)

    @property
    def overhead_tracked_pct(self) -> float:
        return (self.tracked_us - self.ideal_us) / self.ideal_us * 100.0

    @property
    def overhead_tracker_pct(self) -> float:
        return self.tracker_us / self.ideal_us * 100.0

    @property
    def slowdown_tracked(self) -> float:
        return self.tracked_us / self.ideal_us


def _write_pass(stack, proc, region_vpns: np.ndarray, us_per_page: float) -> None:
    """One pass of Listing 1: write one word into every page, in order."""
    batch = 16384
    for lo in range(0, region_vpns.size, batch):
        hi = min(lo + batch, region_vpns.size)
        stack.kernel.access(proc, region_vpns[lo:hi], True)
        stack.kernel.compute(proc, (hi - lo) * us_per_page)


#: Constant process-startup work (fork/exec, malloc, mlockall), us.  Keeps
#: small-memory overhead ratios finite, as in the paper's Table I.
STARTUP_US = 2500.0


def _microbench_setup(mem_mb, pml_buffer_entries, switch_interval_us):
    stack = build_stack(
        vm_mb=max(64.0, mem_mb * 1.5),
        pml_buffer_entries=pml_buffer_entries,
        switch_interval_us=switch_interval_us,
    )
    w = ArrayParser(mem_mb=mem_mb, passes=1)
    proc = stack.kernel.spawn("tracked", n_pages=w.footprint_pages + 16)
    vma = proc.space.add_vma(w.footprint_pages, "array")
    vpns = vma.vpns()
    # mlockall(): the array is faulted in before monitoring begins
    # (Listing 1 pins its pages; the paper suspends Tracked during the
    # tracker's initialization phase, so pages exist when WP is armed).
    _write_pass(stack, proc, vpns, w.us_per_page)
    return stack, proc, vpns, w.us_per_page


def run_microbench(
    technique: Technique | str,
    mem_mb: float,
    passes: int = 2,
    pml_buffer_entries: int = 512,
    switch_interval_us: float = DEFAULT_SWITCH_INTERVAL_US,
) -> MicrobenchResult:
    """Array parser (Listing 1) under one monitoring round (Table I).

    Tracked loops over the (pre-faulted) array; the tracker initialises
    before the first monitored pass and collects between passes — tracker
    activity runs in the same thread as Tracked (paper §VI-B), so the
    collection delays Tracked, exactly as the measured overheads imply.
    A final collection after Tracked finishes only counts toward the
    tracker's own time.
    """
    technique = Technique(technique) if isinstance(technique, str) else technique
    if passes < 1:
        raise ValueError("passes must be >= 1")
    key = ("microbench", technique.value, mem_mb, passes, pml_buffer_entries,
           switch_interval_us, _default_n_vcpus())
    return EXPERIMENT_CACHE.get_or_run(key, lambda: _run_microbench_uncached(
        technique, mem_mb, passes, pml_buffer_entries, switch_interval_us,
    ))


def _run_microbench_uncached(
    technique: Technique,
    mem_mb: float,
    passes: int,
    pml_buffer_entries: int,
    switch_interval_us: float,
) -> MicrobenchResult:
    # Ideal run: no tracker.
    stack, proc, vpns, us_pp = _microbench_setup(
        mem_mb, pml_buffer_entries, switch_interval_us
    )
    t0 = stack.clock.now_us
    stack.kernel.compute(proc, STARTUP_US)
    for _ in range(passes):
        _write_pass(stack, proc, vpns, us_pp)
    ideal_us = stack.clock.now_us - t0

    # Tracked run.  Tracked is suspended during the tracker's
    # initialization phase (paper §III), so its window starts afterwards;
    # the tracker's own time does include initialization.
    stack, proc, vpns, us_pp = _microbench_setup(
        mem_mb, pml_buffer_entries, switch_interval_us
    )
    start = stack.clock.snapshot()
    tracker = make_tracker(technique, stack.kernel, proc)
    tracker.start()
    tracked_start = stack.clock.now_us
    stack.kernel.compute(proc, STARTUP_US)
    n_dirty = 0
    collect_us = 0.0
    for i in range(passes):
        _write_pass(stack, proc, vpns, us_pp)
        if i < passes - 1:
            # Mid-run collection: it shares the CPU with Tracked.
            c0 = stack.clock.now_us
            n_dirty += int(tracker.collect().size)
            collect_us += stack.clock.now_us - c0
    tracked_done = stack.clock.now_us - tracked_start
    c0 = stack.clock.now_us
    n_dirty += int(tracker.collect().size)
    collect_us += stack.clock.now_us - c0
    tracker.stop()
    delta = stack.clock.since(start)
    return MicrobenchResult(
        technique=technique,
        mem_mb=mem_mb,
        ideal_us=ideal_us,
        tracked_us=tracked_done,
        tracker_us=delta.world_us["tracker"],
        collect_us=collect_us,
        n_dirty=n_dirty,
        events=delta.event_count,
        event_us=delta.event_us,
    )


# ---------------------------------------------------------------------
# CRIU runner
# ---------------------------------------------------------------------
@dataclass
class CriuRunResult:
    app: str
    config: str
    technique: Technique
    ideal_us: float
    tracked_us: float  # application wall time including dumps
    dumps: list[CriuReport] = field(default_factory=list)
    events: dict[str, int] = field(default_factory=dict)
    tracker_us: float = 0.0

    @property
    def overhead_tracked_pct(self) -> float:
        return (self.tracked_us - self.ideal_us) / self.ideal_us * 100.0

    @property
    def md_us(self) -> float:
        return sum(d.phases.md_us for d in self.dumps)

    @property
    def mw_us(self) -> float:
        return sum(d.phases.mw_us for d in self.dumps)

    @property
    def checkpoint_us(self) -> float:
        return sum(d.phases.total_us for d in self.dumps)


class _OpportunityDriver:
    """Triggers CRIU actions at chosen checkpoint opportunities."""

    def __init__(self, ctx: FlatContext, actions: dict[int, callable]) -> None:
        # The context holds the hook; the driver does not hold the context.
        self.actions = actions
        self.count = 0
        ctx.checkpoint_opportunity = self._hook  # type: ignore[method-assign]

    def _hook(self) -> None:
        action = self.actions.get(self.count)
        self.count += 1
        if action is not None:
            action()


def _count_opportunities(workload: Workload, vm_mb: float) -> tuple[int, float]:
    stack = build_stack(vm_mb=vm_mb)
    proc = stack.kernel.spawn(workload.name, n_pages=workload.footprint_pages + 64)
    ctx = FlatContext(stack.kernel, proc)
    counter = {"n": 0}
    ctx.checkpoint_opportunity = lambda: counter.__setitem__("n", counter["n"] + 1)  # type: ignore[method-assign]
    workload.run(ctx)
    return counter["n"], stack.clock.now_us


def run_criu(
    app: str,
    config: str = "large",
    technique: Technique | str = Technique.PROC,
    scale: float = 1.0,
    dump_at_fraction: float = 0.6,
    track_from_fraction: float = 0.1,
) -> CriuRunResult:
    """Checkpoint a running application (the paper's §VI-F setup).

    Tracking starts at ``track_from_fraction`` of the run and an
    incremental dump happens at ``dump_at_fraction`` — so the dump
    captures the pages dirtied in between, exercising MD/MW per
    technique.
    """
    technique = Technique(technique) if isinstance(technique, str) else technique
    key = ("criu", app, config, technique.value, scale, dump_at_fraction,
           track_from_fraction, _default_n_vcpus())
    return EXPERIMENT_CACHE.get_or_run(key, lambda: _run_criu_uncached(
        app, config, technique, scale, dump_at_fraction, track_from_fraction,
    ))


def _run_criu_uncached(
    app: str,
    config: str,
    technique: Technique,
    scale: float,
    dump_at_fraction: float,
    track_from_fraction: float,
) -> CriuRunResult:
    workload = make_workload(app, config, scale=scale)
    vm_mb = workload.footprint_pages / 256 * 1.3 + 64
    # Untracked baseline: (n_opportunities, ideal_us), shared across the
    # technique sweep for one (app, config, scale).
    n_opps, ideal_us = EXPERIMENT_CACHE.get_or_run(
        ("criu_ideal", app, config, scale, _default_n_vcpus()),
        lambda: _count_opportunities(
            make_workload(app, config, scale=scale), vm_mb
        ),
    )

    stack = build_stack(vm_mb=vm_mb)
    proc = stack.kernel.spawn(workload.name, n_pages=workload.footprint_pages + 64)
    ctx = FlatContext(stack.kernel, proc)
    criu = Criu(stack.kernel, technique)
    state: dict = {"session": None}

    def begin() -> None:
        state["session"] = criu.begin(proc)

    def dump() -> None:
        state["session"].dump()

    start = stack.clock.snapshot()
    if n_opps < 2:
        # Workload exposes no safe points: bracket the whole run.
        begin()
        workload.run(ctx)
        dump()
    else:
        begin_at = min(n_opps - 2, max(0, int(n_opps * track_from_fraction)))
        dump_at = min(n_opps - 1, max(begin_at + 1, int(n_opps * dump_at_fraction)))
        _OpportunityDriver(ctx, {begin_at: begin, dump_at: dump})
        workload.run(ctx)
    tracked_us = stack.clock.now_us - start.now_us
    session = state["session"]
    dumps = list(session.dumps) if session is not None else []
    if session is not None:
        session.finish()
    delta = stack.clock.since(start)
    return CriuRunResult(
        app=app,
        config=config,
        technique=technique,
        ideal_us=ideal_us,
        tracked_us=tracked_us,
        dumps=dumps,
        events=delta.event_count,
        tracker_us=delta.world_us["tracker"],
    )


# ---------------------------------------------------------------------
# Boehm runner
# ---------------------------------------------------------------------
@dataclass
class BoehmRunResult:
    app: str
    config: str
    technique: Technique
    ideal_us: float
    tracked_us: float
    cycles: list[GcCycleReport] = field(default_factory=list)
    tracker_us: float = 0.0

    @property
    def overhead_tracked_pct(self) -> float:
        return (self.tracked_us - self.ideal_us) / self.ideal_us * 100.0

    @property
    def gc_us(self) -> float:
        return sum(c.pause_us for c in self.cycles)


def _boehm_once(
    app: str, config: str, technique: Technique, scale: float,
    gc_params: GcParams,
) -> tuple[SimpleNamespace, BoehmRunResult]:
    workload = make_workload(app, config, scale=scale)
    heap_pages = int(workload.footprint_pages * 1.6) + 512
    vm_mb = heap_pages / 256 * 1.3 + 64
    stack = build_stack(vm_mb=vm_mb)
    proc = stack.kernel.spawn(workload.name, n_pages=heap_pages + 64)
    heap = GcHeap(stack.kernel, proc, heap_pages=heap_pages)
    gc = BoehmGc(stack.kernel, heap, technique, gc_params)
    ctx = GcContext(stack.kernel, proc, heap, gc)
    start = stack.clock.snapshot()
    with gc:
        workload.run(ctx)
    tracked_us = stack.clock.now_us - start.now_us
    delta = stack.clock.since(start)
    result = BoehmRunResult(
        app=app,
        config=config,
        technique=technique,
        ideal_us=0.0,
        tracked_us=tracked_us,
        cycles=list(gc.cycles),
        tracker_us=delta.world_us["tracker"],
    )
    return stack, result


def run_boehm(
    app: str,
    config: str = "small",
    technique: Technique | str = Technique.PROC,
    scale: float = 1.0,
    gc_params: GcParams | None = None,
) -> BoehmRunResult:
    """Run an application on the GC heap under one technique (§VI-E).

    The ideal baseline is the same run under the oracle (GC still runs —
    the paper's baseline is the untracked application, so the overhead
    compares tracking techniques, with oracle as the floor).
    """
    technique = Technique(technique) if isinstance(technique, str) else technique
    params = gc_params if gc_params is not None else GcParams()
    key = ("boehm", app, config, technique.value, scale, params,
           _default_n_vcpus())
    return EXPERIMENT_CACHE.get_or_run(key, lambda: _run_boehm_uncached(
        app, config, technique, scale, params,
    ))


def _run_boehm_uncached(
    app: str,
    config: str,
    technique: Technique,
    scale: float,
    params: GcParams,
) -> BoehmRunResult:
    # Oracle baselines are deterministic per configuration: cache the
    # whole run so a technique sweep pays for each baseline once.
    oracle = EXPERIMENT_CACHE.get_or_run(
        ("boehm_oracle", app, config, scale, params, _default_n_vcpus()),
        lambda: _boehm_once(app, config, Technique.ORACLE, scale, params)[1],
    )
    if technique is Technique.ORACLE:
        oracle.ideal_us = oracle.tracked_us
        return oracle
    _, result = _boehm_once(app, config, technique, scale, params)
    result.ideal_us = oracle.tracked_us
    return result
