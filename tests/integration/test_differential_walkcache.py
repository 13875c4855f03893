"""Differential validation: walk cache on vs off.

Steady-state replay (``Mmu`` walk cache, PR 6) must be invisible to
everything the simulation measures: identical collects, identical clock
totals and event counts, identical PML/ring drop counters, identical
memory content — for every tracking technique, with chaos (fault
injection) active, and under full-detail tracing.  Each scenario runs
twice on stacks that differ only in the cache switch; the cached leg
must actually replay batches (otherwise the comparison proves nothing).
"""

import numpy as np
import pytest

from repro.core.tracking import make_tracker
from repro.experiments.harness import build_stack
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.obs import trace as otr

N_PAGES = 128
ROUNDS = 3
STEADY_REPEATS = 3
TECHNIQUES = ("proc", "ufd", "spml", "epml", "oracle")

CHAOS = [
    FaultSpec(FaultSite.PML_ENTRY_DROP, 0.25),
    FaultSpec(FaultSite.RING_OVERFLOW, 0.25),
    FaultSpec(FaultSite.LOST_SELF_IPI, 0.2),
]


def _run(technique: str, walk_cache: bool, chaos: bool = False,
         trace: bool = False):
    """One fixed scenario; returns (state tuple, trace jsonl, mmu)."""
    stack = build_stack(vm_mb=16, pml_buffer_entries=32)
    mmu = stack.vm.mmu
    # Force the switch explicitly so both legs are meaningful regardless
    # of the REPRO_WALK_CACHE CI matrix leg this test runs under.
    mmu._cache = {} if walk_cache else None
    proc = stack.kernel.spawn("app", n_pages=N_PAGES)
    proc.space.add_vma(N_PAGES)
    rng = np.random.default_rng(11)
    session = otr.TraceSession() if trace else None
    injector = FaultPlan(CHAOS, seed=5).build() if chaos else None
    collects = []

    def body():
        stack.kernel.access(proc, np.arange(N_PAGES), True)  # prefault
        tracker = make_tracker(technique, stack.kernel, proc)
        tracker.start()
        steady = np.arange(0, N_PAGES // 2, dtype=np.int64)
        for _ in range(ROUNDS):
            # Identical repeated batches: walk -> fast path -> replay.
            for _ in range(STEADY_REPEATS):
                stack.kernel.access(proc, steady, True)
            vpns = rng.integers(0, N_PAGES, size=N_PAGES // 2)
            stack.kernel.access(proc, vpns, True)
            collects.append([int(v) for v in tracker.collect()])
        tracker.stop()

    if trace and chaos:
        with session.active(), injector.active():
            body()
    elif trace:
        with session.active():
            body()
    elif chaos:
        with injector.active():
            body()
    else:
        body()

    pml = stack.vm.vcpu.pml
    state = (
        collects,
        stack.clock.now_us,
        dict(stack.clock.snapshot().event_count),
        pml.n_hyp_full_events,
        pml.n_guest_full_events,
        pml.n_hyp_dropped,
        pml.n_guest_dropped,
        pml.n_hyp_injected_drops,
        pml.n_guest_injected_drops,
        proc.space.pt.flags.tolist(),
        stack.vm.ept.flags.tolist(),
        mmu.host_mem._content.tolist(),
    )
    jsonl = session.trace.to_jsonl() if trace else None
    return state, jsonl, mmu


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_walk_cache_bit_identical_per_technique(technique):
    on_state, _, on_mmu = _run(technique, walk_cache=True)
    off_state, _, off_mmu = _run(technique, walk_cache=False)
    assert on_mmu.n_replay_batches > 0, "cached leg never replayed"
    assert off_mmu.n_replay_batches == 0
    assert on_state == off_state


@pytest.mark.parametrize("technique", ("spml", "epml"))
def test_walk_cache_bit_identical_under_chaos(technique):
    """Replay skips PML logging entirely; it must therefore consume zero
    draws from the injector streams, keeping every later fault decision
    aligned with the uncached leg."""
    on_state, _, on_mmu = _run(technique, walk_cache=True, chaos=True)
    off_state, _, off_mmu = _run(technique, walk_cache=False, chaos=True)
    assert on_mmu.n_replay_batches > 0
    assert on_state == off_state


@pytest.mark.parametrize("technique", ("epml", "oracle"))
def test_walk_cache_bit_identical_under_detailed_trace(technique):
    """Full-detail tracing: the replayed batches must emit byte-identical
    WRITE events (including per-page payloads) in the same order."""
    on_state, on_jsonl, on_mmu = _run(technique, walk_cache=True, trace=True)
    off_state, off_jsonl, _ = _run(technique, walk_cache=False, trace=True)
    assert on_mmu.n_replay_batches > 0
    assert on_state == off_state
    assert on_jsonl == off_jsonl
