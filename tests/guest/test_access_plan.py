"""Access-plan engine: batched submission must equal per-call driving.

``GuestKernel.access_plan`` amortizes per-call overhead but promises
*semantic identity* with the per-batch API: same MMU outcomes, same
clock totals and event counts, same scheduler switches and vCPU
rotation, same listener notifications.  These tests run the same op
streams both ways — including on a 2-vCPU stack with a switch interval
small enough to rotate the process mid-plan — and compare full state.
"""

import numpy as np
import pytest

from repro.errors import GuestError, WorkloadError
from repro.experiments.harness import build_stack
from repro.guest.plan import PlanBuilder
from repro.workloads import FlatContext
from repro.workloads.base import GcContext

N_PAGES = 96


def _stack(add_vma=True, **kw):
    stack = build_stack(vm_mb=8, **kw)
    proc = stack.kernel.spawn("app", n_pages=N_PAGES)
    if add_vma:
        proc.space.add_vma(N_PAGES)
    return stack, proc


def _ops(rng):
    """A mixed op stream: writes, reads, masked batches, computes."""
    ops = []
    for i in range(12):
        vpns = np.sort(rng.choice(N_PAGES, size=16, replace=False))
        if i % 3 == 0:
            ops.append(("a", vpns, True))
        elif i % 3 == 1:
            ops.append(("a", vpns, False))
        else:
            mask = rng.random(16) < 0.5
            ops.append(("a", vpns, mask))
        ops.append(("c", float(rng.integers(10, 2000))))
    return ops


def _state(stack, proc, results):
    return (
        [
            (r.n_accesses, r.n_writes, r.n_minor_faults, r.n_wp_faults,
             r.newly_pte_dirty.tolist(), r.newly_ept_dirty.tolist())
            for r in results
        ],
        stack.clock.now_us,
        dict(stack.clock.snapshot().event_count),
        stack.kernel.scheduler.n_switches,
        stack.kernel.scheduler.vcpu_of(proc),
        proc.space.pt.flags.tolist(),
        stack.vm.mmu.host_mem._content.tolist(),
    )


@pytest.mark.parametrize("n_vcpus,interval", [(1, 3_500_000.0), (2, 900.0)])
def test_plan_equals_per_call_driving(n_vcpus, interval):
    """Full-state equivalence; the (2, 900us) leg rotates the process
    across vCPUs mid-plan, so the executor's vCPU refresh is exercised."""
    ops = _ops(np.random.default_rng(3))

    stack_a, proc_a = _stack(n_vcpus=n_vcpus, switch_interval_us=interval)
    results_a = []
    for op in ops:
        if op[0] == "a":
            results_a.append(stack_a.kernel.access(proc_a, op[1], op[2]))
        else:
            stack_a.kernel.compute(proc_a, op[1])

    stack_b, proc_b = _stack(n_vcpus=n_vcpus, switch_interval_us=interval)
    b = PlanBuilder()
    for op in ops:
        if op[0] == "a":
            b.access(op[1], op[2])
        else:
            b.compute(op[1])
    results_b = stack_b.kernel.access_plan(proc_b, b.build())

    if n_vcpus > 1:
        assert stack_a.kernel.scheduler.n_switches > 0  # rotation happened
    assert _state(stack_a, proc_a, results_a) == _state(
        stack_b, proc_b, results_b
    )


def test_plan_repeated_execution_stays_identical():
    """A frozen plan executed repeatedly matches per-call driving
    executed the same number of times."""
    vpns = np.arange(0, 64, dtype=np.int64)

    stack_a, proc_a = _stack()
    results_a = []
    for _ in range(4):
        results_a.append(stack_a.kernel.access(proc_a, vpns, True))
        stack_a.kernel.compute(proc_a, 100.0)

    stack_b, proc_b = _stack()
    plan = PlanBuilder().write(vpns).compute(100.0).build()
    results_b = []
    for _ in range(4):
        results_b.extend(stack_b.kernel.access_plan(proc_b, plan))

    assert _state(stack_a, proc_a, results_a) == _state(
        stack_b, proc_b, results_b
    )


def test_multi_batch_segment_replays():
    """A plan whose segment holds several batches re-runs them all: after
    a dirty-bit re-arm, every page is re-observed as freshly dirty."""
    from repro.hw.pagetable import PTE_DIRTY

    stack, proc = _stack()
    b = PlanBuilder()
    for lo in range(0, 64, 16):
        b.write(np.arange(lo, lo + 16, dtype=np.int64))
    plan = b.build()
    assert plan.n_batches == 4 and len(plan.items) == 1
    for _ in range(3):
        stack.kernel.access_plan(proc, plan)
    proc.space.pt.clear_flags(np.arange(64), PTE_DIRTY)
    proc.space.invalidate_all(np.arange(64))
    rs = stack.kernel.access_plan(proc, plan)
    assert sum(r.newly_pte_dirty.size for r in rs) == 64


def test_listeners_observe_every_batch_in_order():
    stack, proc = _stack()
    seen = []
    stack.kernel.add_access_listener(
        lambda p, r: seen.append((p.pid, r.n_accesses, r.n_writes))
    )
    plan = (
        PlanBuilder()
        .write(np.arange(10))
        .compute(5.0)
        .read(np.arange(20))
        .build()
    )
    stack.kernel.access_plan(proc, plan)
    assert seen == [(proc.pid, 10, 10), (proc.pid, 20, 0)]


def test_plain_batch_list_accepted():
    stack, proc = _stack()
    rs = stack.kernel.access_plan(
        proc, [(np.arange(8), True), (np.arange(8, 16), False)]
    )
    assert [(r.n_accesses, r.n_writes) for r in rs] == [(8, 8), (8, 0)]


def test_plan_builder_validation():
    with pytest.raises(GuestError):
        PlanBuilder().compute(-1.0)
    with pytest.raises(GuestError):
        PlanBuilder().access(np.arange(4), np.array([True, False]))
    # Empty batches are dropped, mirroring FlatContext.write/read.
    plan = PlanBuilder().write(np.empty(0, dtype=np.int64)).build()
    assert plan.items == [] and plan.n_batches == 0


def test_plan_counts():
    plan = (
        PlanBuilder()
        .write(np.arange(10))
        .compute(7.0)
        .access(np.arange(4), np.array([True, False, True, False]))
        .build()
    )
    assert plan.n_batches == 2
    assert plan.n_accesses == 14
    assert plan.n_writes == 12
    assert plan.compute_us == 7.0


def test_frozen_plans_are_immune_to_caller_mutation():
    stack, proc = _stack()
    vpns = np.arange(0, 32, dtype=np.int64)
    plan = PlanBuilder().write(vpns).build()
    vpns[:] = 0  # caller scribbles over its buffer
    rs = stack.kernel.access_plan(proc, plan)
    assert rs[0].n_accesses == 32
    assert rs[0].newly_pte_dirty.tolist() == list(range(32))


def test_dead_and_stopped_processes_rejected():
    stack, proc = _stack()
    plan = PlanBuilder().write(np.arange(4)).build()
    stack.kernel.stop_process(proc)
    with pytest.raises(GuestError):
        stack.kernel.access_plan(proc, plan)
    stack.kernel.resume_process(proc)
    stack.kernel.exit_process(proc)
    with pytest.raises(GuestError):
        stack.kernel.access_plan(proc, plan)


def test_write_many_equals_write_loop():
    offsets = [np.arange(0, 16), np.arange(16, 32), np.empty(0, dtype=np.int64)]

    stack_a, proc_a = _stack(add_vma=False)
    ctx_a = FlatContext(stack_a.kernel, proc_a)
    region_a = ctx_a.alloc_region(64, "r")
    for o in offsets:
        ctx_a.write(region_a, o)
    for o in offsets:
        ctx_a.read(region_a, o)

    stack_b, proc_b = _stack(add_vma=False)
    ctx_b = FlatContext(stack_b.kernel, proc_b)
    region_b = ctx_b.alloc_region(64, "r")
    ctx_b.write_many(region_b, offsets)
    ctx_b.read_many(region_b, offsets)

    assert _state(stack_a, proc_a, []) == _state(stack_b, proc_b, [])


def test_gc_context_declines_plans():
    stack, proc = _stack()
    assert FlatContext(stack.kernel, proc).supports_plans is True
    assert GcContext.supports_plans is False
    gc_ctx = GcContext(stack.kernel, proc, heap=None, gc=None)
    with pytest.raises(WorkloadError):
        gc_ctx.run_plan(PlanBuilder().write(np.arange(4)).build())
