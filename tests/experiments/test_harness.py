"""Tests for the experiment harness (micro/CRIU/Boehm runners)."""

import pytest

from repro.core.tracking import Technique
from repro.errors import ConfigurationError
from repro.experiments.harness import (
    build_stack,
    run_boehm,
    run_criu,
    run_microbench,
)
from repro.trackers.boehm import GcParams


def test_build_stack_defaults():
    stack = build_stack(vm_mb=64)
    assert stack.vm.mem_pages == 64 * 256
    assert stack.kernel.vm is stack.vm


def test_build_stack_vcpus_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_VCPUS", "2")
    assert len(build_stack(vm_mb=8).vm.vcpus) == 2
    monkeypatch.setenv("REPRO_VCPUS", "")
    assert len(build_stack(vm_mb=8).vm.vcpus) == 1
    # Rejected before any VM is built, naming the variable.
    for raw in ("abc", "0", "-1", "1.5"):
        monkeypatch.setenv("REPRO_VCPUS", raw)
        with pytest.raises(ConfigurationError, match="REPRO_VCPUS"):
            build_stack(vm_mb=8)


def test_microbench_oracle_has_zero_overhead():
    r = run_microbench(Technique.ORACLE, mem_mb=2)
    assert r.overhead_tracked_pct == pytest.approx(0.0, abs=0.01)
    assert r.tracker_us == 0.0
    assert r.n_dirty == 2 * 512  # two passes over 512 pages


def test_microbench_counts_full_dirty_set():
    for tech in ("proc", "ufd", "spml", "epml"):
        r = run_microbench(tech, mem_mb=2)
        assert r.n_dirty == 2 * 512, tech


def test_microbench_result_properties():
    r = run_microbench("proc", mem_mb=2)
    assert r.slowdown_tracked == pytest.approx(
        r.tracked_us / r.ideal_us
    )
    assert r.overhead_tracked_pct == pytest.approx(
        (r.slowdown_tracked - 1) * 100
    )
    assert r.events["clear_refs"] >= 2  # init + per-collect re-arm


def test_microbench_passes_validation():
    with pytest.raises(ValueError):
        run_microbench("proc", mem_mb=2, passes=0)


def test_criu_runner_produces_dump(technique=Technique.EPML):
    r = run_criu("baby", "small", technique, scale=0.002)
    assert len(r.dumps) == 1
    assert r.dumps[0].pages_dumped > 0
    assert r.tracked_us > r.ideal_us
    assert r.overhead_tracked_pct > 0


def test_criu_runner_ideal_cached_and_consistent():
    a = run_criu("baby", "small", "proc", scale=0.002)
    b = run_criu("baby", "small", "epml", scale=0.002)
    assert a.ideal_us == b.ideal_us  # same cached baseline
    assert b.overhead_tracked_pct < a.overhead_tracked_pct


def test_boehm_runner_collects_cycles():
    r = run_boehm(
        "gcbench", "small", "epml", scale=0.002,
        gc_params=GcParams(threshold_bytes=256 * 1024),
    )
    assert len(r.cycles) >= 1
    assert r.gc_us > 0
    assert r.ideal_us > 0


def test_boehm_oracle_is_the_baseline():
    params = GcParams(threshold_bytes=256 * 1024)
    o = run_boehm("gcbench", "small", "oracle", scale=0.002, gc_params=params)
    assert o.ideal_us == o.tracked_us
    p = run_boehm("gcbench", "small", "proc", scale=0.002, gc_params=params)
    assert p.tracked_us > p.ideal_us
