"""Tests for the unified tracking API across all five techniques."""

import numpy as np
import pytest

from repro.core.clock import World
from repro.core.tracking import (
    DirtyPageTracker,
    Technique,
    make_tracker,
    register_technique,
)
from repro.errors import TrackingError

ALL = [Technique.PROC, Technique.UFD, Technique.SPML, Technique.EPML, Technique.ORACLE]


def spawn(stack, n_pages=64):
    proc = stack.kernel.spawn("tracked", n_pages=n_pages)
    proc.space.add_vma(n_pages)
    # Populate before tracking so demand-paging noise is identical.
    stack.kernel.access(proc, np.arange(n_pages), True)
    return proc


@pytest.mark.parametrize("technique", ALL)
def test_collect_reports_exactly_the_written_pages(stack, technique):
    proc = spawn(stack)
    tracker = make_tracker(technique, stack.kernel, proc)
    with tracker:
        stack.kernel.access(proc, [3, 7, 11], True)
        stack.kernel.access(proc, [20, 21], False)  # reads don't count
        dirty = tracker.collect()
    assert set(int(v) for v in dirty) == {3, 7, 11}


@pytest.mark.parametrize("technique", ALL)
def test_collect_intervals_are_disjoint(stack, technique):
    proc = spawn(stack)
    tracker = make_tracker(technique, stack.kernel, proc)
    with tracker:
        stack.kernel.access(proc, [1, 2], True)
        first = set(int(v) for v in tracker.collect())
        stack.kernel.access(proc, [2, 3], True)
        second = set(int(v) for v in tracker.collect())
    assert first == {1, 2}
    assert second == {2, 3}


@pytest.mark.parametrize("technique", ALL)
def test_empty_interval_collects_nothing(stack, technique):
    proc = spawn(stack)
    tracker = make_tracker(technique, stack.kernel, proc)
    with tracker:
        tracker.collect()  # drain initial state
        assert tracker.collect().size == 0


@pytest.mark.parametrize(
    "technique", [Technique.PROC, Technique.UFD, Technique.SPML, Technique.EPML]
)
def test_all_techniques_agree_with_oracle(stack, technique):
    """Completeness (evaluation question 3): nothing missed vs. oracle."""
    proc = spawn(stack, n_pages=256)
    rng = np.random.default_rng(42)
    oracle = make_tracker(Technique.ORACLE, stack.kernel, proc)
    tech = make_tracker(technique, stack.kernel, proc)
    oracle.start()
    tech.start()
    oracle.collect()  # reset oracle over the same window
    for _ in range(5):
        vpns = rng.integers(0, 256, size=40)
        stack.kernel.access(proc, vpns, True)
    got = set(int(v) for v in tech.collect())
    expected = set(int(v) for v in oracle.collect())
    tech.stop()
    oracle.stop()
    assert got == expected


def test_collect_before_start_rejected(stack):
    proc = spawn(stack)
    tracker = make_tracker(Technique.PROC, stack.kernel, proc)
    with pytest.raises(TrackingError):
        tracker.collect()


def test_double_start_rejected(stack):
    proc = spawn(stack)
    tracker = make_tracker(Technique.ORACLE, stack.kernel, proc)
    tracker.start()
    with pytest.raises(TrackingError):
        tracker.start()
    tracker.stop()


def test_stop_is_idempotent(stack):
    proc = spawn(stack)
    tracker = make_tracker(Technique.PROC, stack.kernel, proc)
    tracker.start()
    tracker.stop()
    tracker.stop()


def test_make_tracker_by_name(stack):
    proc = spawn(stack)
    tracker = make_tracker("epml", stack.kernel, proc)
    assert tracker.technique is Technique.EPML


def test_register_technique_requires_attribute():
    with pytest.raises(TrackingError):

        @register_technique
        class Bad(DirtyPageTracker):  # no technique attribute
            def _do_start(self):
                pass

            def _do_collect(self):
                return np.empty(0)

            def _do_stop(self):
                pass


def test_oracle_is_free(stack):
    proc = spawn(stack)
    t0 = stack.clock.now_us
    tracker = make_tracker(Technique.ORACLE, stack.kernel, proc)
    with tracker:
        tracker.collect()
    assert stack.clock.now_us == t0


def test_cost_ordering_on_collection_heavy_run(stack):
    """Tracker-side cost ordering: EPML < PROC < SPML (the paper's
    collection-phase ranking; ufd pays during monitoring instead)."""
    tracker_cost = {}
    for technique in [Technique.PROC, Technique.SPML, Technique.EPML]:
        proc = spawn(stack, n_pages=256)
        tracker = make_tracker(technique, stack.kernel, proc)
        before = stack.clock.world_us(World.TRACKER)
        with tracker:
            after_init = stack.clock.world_us(World.TRACKER)
            stack.kernel.access(proc, np.arange(256), True)
            tracker.collect()
            # Exclude start/stop constants: measure collection only.
            tracker_cost[technique] = (
                stack.clock.world_us(World.TRACKER) - after_init
            )
    assert tracker_cost[Technique.EPML] < tracker_cost[Technique.PROC]
    assert tracker_cost[Technique.PROC] < tracker_cost[Technique.SPML]


def test_proc_stop_restores_writability(stack):
    proc = spawn(stack)
    tracker = make_tracker(Technique.PROC, stack.kernel, proc)
    with tracker:
        tracker.collect()  # leaves pages write-protected (re-armed)
    r = stack.kernel.access(proc, [5], True)
    assert r.n_wp_faults == 0  # no stray tracking faults after stop


def test_reverse_map_cache_is_spml_only(stack):
    """SPML takes the reverse-map cache; EPML, which logs GVAs and never
    reverse-maps, rejects the argument instead of ignoring it."""
    proc = spawn(stack)
    tracker = make_tracker("spml", stack.kernel, proc, reverse_map_cache=True)
    with tracker:
        stack.kernel.access(proc, [4, 9], True)
        assert set(int(v) for v in tracker.collect()) == {4, 9}
        assert tracker._att._rmap_cache is not None
    with pytest.raises(TypeError):
        make_tracker("epml", stack.kernel, proc, reverse_map_cache=True)
