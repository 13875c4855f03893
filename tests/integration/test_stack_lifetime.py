"""A dropped stack is freed at once, by reference counting.

Experiments build thousands of host + VM stacks.  If any part of a stack
sits in a reference cycle, the whole stack (its host memory arrays
included) lives on until the cyclic collector runs, and the process's
peak RSS follows the collector's schedule instead of what is live.  The
ownership rule (DESIGN.md, "Stacks are acyclic"): an edge a caller relies
on for lifetime is strong; the edge back is weak or absent.

These tests run with the cyclic collector disabled, so a stack that is
not freed on its last reference drop shows up as a live weak reference.
"""

import gc
import weakref

import pytest

from repro.core.ooh import OohModule
from repro.core.tracking import Technique, make_tracker
from repro.experiments import harness
from repro.guest.scheduler import DEFAULT_SWITCH_INTERVAL_US
from repro.trackers.boehm import GcParams


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def host_memories(monkeypatch):
    """Weak references to the host memory of every stack built."""
    refs = []
    build = harness.build_stack

    def recording(*args, **kwargs):
        stack = build(*args, **kwargs)
        refs.append(weakref.ref(stack.hv.host_mem))
        return stack

    monkeypatch.setattr(harness, "build_stack", recording)
    return refs


def _assert_all_freed(refs) -> None:
    assert refs, "no stack was built"
    alive = sum(ref() is not None for ref in refs)
    assert alive == 0, f"{alive} of {len(refs)} dropped stacks still alive"


def test_shared_module_is_one_per_kernel():
    a = harness.build_stack(vm_mb=64)
    b = harness.build_stack(vm_mb=64)
    mod_a = OohModule.shared(a.kernel)
    assert OohModule.shared(a.kernel) is mod_a
    assert OohModule.shared(b.kernel) is not mod_a
    assert mod_a.kernel is a.kernel


@pytest.mark.parametrize("technique", [Technique.SPML, Technique.EPML],
                         ids=lambda t: t.value)
def test_ooh_tracked_kernel_is_freed(technique):
    stack = harness.build_stack(vm_mb=64)
    proc = stack.kernel.spawn("tracked", n_pages=256)
    vpns = proc.space.add_vma(128, "heap").vpns()
    stack.kernel.access(proc, vpns, True)
    tracker = make_tracker(technique, stack.kernel, proc)
    tracker.start()
    stack.kernel.access(proc, vpns[:40], True)
    assert tracker.collect().size == 40
    tracker.stop()
    kernel = weakref.ref(stack.kernel)
    del stack, proc, tracker
    gc.collect()
    assert kernel() is None


@pytest.fixture(params=[1, 2], ids=["vcpus1", "vcpus2"])
def n_vcpus(request, monkeypatch):
    monkeypatch.setenv("REPRO_VCPUS", str(request.param))
    return request.param


@pytest.mark.parametrize("technique", list(Technique), ids=lambda t: t.value)
def test_microbench_stacks_freed_by_refcount(
    technique, n_vcpus, host_memories, no_cyclic_gc
):
    harness.run_microbench.__wrapped__(
        technique, 1.0, 2, 512, DEFAULT_SWITCH_INTERVAL_US
    )
    _assert_all_freed(host_memories)


@pytest.mark.parametrize("technique",
                         [Technique.PROC, Technique.SPML, Technique.EPML],
                         ids=lambda t: t.value)
def test_criu_stacks_freed_by_refcount(
    technique, n_vcpus, host_memories, no_cyclic_gc
):
    harness.run_criu.__wrapped__("stdhash", "small", technique, 0.05, 0.6, 0.1)
    _assert_all_freed(host_memories)


@pytest.mark.parametrize("technique",
                         [Technique.ORACLE, Technique.SPML, Technique.EPML],
                         ids=lambda t: t.value)
def test_boehm_stacks_freed_by_refcount(
    technique, n_vcpus, host_memories, no_cyclic_gc
):
    harness._boehm_once("gcbench", "small", technique, 0.05, GcParams())
    _assert_all_freed(host_memories)
