"""Schedule-fuzz: dirty tracking is schedule-independent (SMP).

Seeded random vCPU interleavings — explicit migrations, quantum-expiry
round-robin rotations driven through ``compute``, writes split across
the resulting placements — must never change *what* a tracker collects:
for any schedule, the collected dirty set equals the oracle's (ground
truth read straight from PTE dirty bits) round for round.

52 distinct schedules (26 seeds x n_vcpus in {2, 4}) drive SPML and
EPML against the oracle on identically-scheduled stacks.  The same
schedule replayed twice must also be bit-reproducible (same clock, same
event counts) — the interleavings are deterministic by construction.
"""

import random

import numpy as np
import pytest

from repro.core.tracking import make_tracker
from repro.experiments.harness import build_stack

SEEDS = range(26)
VCPU_COUNTS = (2, 4)
SWITCH_INTERVAL_US = 200.0


def _make_schedule(seed: int, n_vcpus: int):
    """A deterministic random schedule: per-round op lists."""
    py = random.Random(seed * 7919 + n_vcpus)
    n_pages = py.choice([64, 96, 128])
    rounds = py.randint(2, 4)
    schedule = []
    for _ in range(rounds):
        ops = []
        for _ in range(py.randint(1, 6)):
            r = py.random()
            if r < 0.3:
                ops.append(("migrate", py.randrange(n_vcpus)))
            elif r < 0.5:
                # Enough runtime to cross quantum boundaries: the
                # scheduler's round-robin rotation moves the process to
                # the next vCPU mid-round.
                ops.append(("compute", py.uniform(50.0, 600.0)))
            else:
                k = py.randint(1, n_pages)
                ops.append(
                    ("write", py.sample(range(n_pages), k))
                )
        schedule.append(ops)
    return n_pages, schedule


def _run(technique: str, n_pages: int, n_vcpus: int, schedule) -> dict:
    stack = build_stack(
        vm_mb=16,
        pml_buffer_entries=32,
        switch_interval_us=SWITCH_INTERVAL_US,
        n_vcpus=n_vcpus,
    )
    proc = stack.kernel.spawn("app", n_pages=n_pages)
    proc.space.add_vma(n_pages)
    stack.kernel.access(proc, np.arange(n_pages), True)
    tracker = make_tracker(technique, stack.kernel, proc)
    tracker.start()
    collected = []
    vcpus_seen = set()
    for ops in schedule:
        for op, arg in ops:
            if op == "migrate":
                stack.kernel.scheduler.migrate(proc, arg)
            elif op == "compute":
                stack.kernel.compute(proc, arg)
            else:
                stack.kernel.access(
                    proc, np.array(arg, dtype=np.int64), True
                )
            vcpus_seen.add(stack.kernel.scheduler.vcpu_of(proc))
        collected.append(sorted(int(v) for v in tracker.collect()))
    tracker.stop()
    return {
        "collected": collected,
        "vcpus_seen": vcpus_seen,
        "clock_us": stack.clock.now_us,
        "event_count": dict(stack.clock.snapshot().event_count),
        "pml_fulls": [vc.pml.hyp.n_full_events for vc in stack.vm.vcpus],
        "n_migrations": stack.kernel.scheduler.n_migrations,
        "n_switches": stack.kernel.scheduler.n_switches,
    }


@pytest.mark.parametrize("n_vcpus", VCPU_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_collected_set_matches_oracle_under_any_schedule(seed, n_vcpus):
    n_pages, schedule = _make_schedule(seed, n_vcpus)
    oracle = _run("oracle", n_pages, n_vcpus, schedule)
    for technique in ("spml", "epml"):
        got = _run(technique, n_pages, n_vcpus, schedule)
        assert got["collected"] == oracle["collected"], (
            f"{technique} diverged from oracle under schedule "
            f"(seed={seed}, n_vcpus={n_vcpus})"
        )


@pytest.mark.parametrize("seed", [0, 5, 7])
def test_schedules_actually_interleave(seed):
    """The fuzzer is not vacuous: schedules genuinely bounce the process
    across vCPUs (migrations and quantum rotations both occur)."""
    n_pages, schedule = _make_schedule(seed, 2)
    r = _run("spml", n_pages, 2, schedule)
    assert len(r["vcpus_seen"]) > 1
    assert r["n_migrations"] + r["n_switches"] > 0


@pytest.mark.parametrize("technique", ("spml", "epml"))
@pytest.mark.parametrize("seed", [3, 11])
def test_same_schedule_is_bit_reproducible(technique, seed):
    """Replaying one schedule gives identical clocks, event counts, and
    per-vCPU buffer-full tallies — interleaving is deterministic."""
    n_pages, schedule = _make_schedule(seed, 4)
    a = _run(technique, n_pages, 4, schedule)
    b = _run(technique, n_pages, 4, schedule)
    assert a == b
