"""Ablation: SPML's reverse-map cache (DESIGN.md §4).

The paper's Boehm integration reuses the GPA->GVA translations collected
during the first GC cycle (§VI-E footnote).  Disabling that cache makes
*every* cycle pay the pagemap-scan reverse mapping, isolating how much of
EPML's advantage comes from avoiding reverse mapping versus avoiding
hypercalls.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from conftest import QUICK

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.core.tracking import Technique
from repro.guest.kernel import GuestKernel
from repro.hypervisor.hypervisor import Hypervisor
from repro.trackers.boehm import BoehmGc, GcHeap, GcParams

N_OBJS = 2_000 if QUICK else 20_000
N_CYCLES = 5


def _run(reverse_map_cache: bool) -> SimpleNamespace:
    clock = SimClock()
    hv = Hypervisor(clock, CostModel(), host_mem_mb=512)
    vm = hv.create_vm("vm0", mem_mb=256)
    kernel = GuestKernel(vm)
    proc = kernel.spawn("app", n_pages=40_000)
    heap = GcHeap(kernel, proc, heap_pages=30_000)
    ids = heap.alloc(N_OBJS, 64)
    heap.set_refs(ids[:-1], ids[1:])
    heap.add_roots(ids[:1])
    gc = BoehmGc(
        kernel, heap, Technique.SPML, GcParams(),
        reverse_map_cache=reverse_map_cache,
    )
    with gc:
        heap.write_objs(ids)
        gc.collect()
        for i in range(N_CYCLES - 1):
            heap.write_objs(ids[i::4])  # mutate known pages: cache hits
            gc.collect()
    return SimpleNamespace(gc=gc, clock=clock)


@pytest.mark.parametrize("cache", [True, False], ids=["cached", "uncached"])
def test_ablation_rmap_cache(benchmark, cache):
    out = benchmark.pedantic(_run, args=(cache,), rounds=1, iterations=1)
    total = sum(c.pause_us for c in out.gc.cycles)
    benchmark.extra_info["total_gc_ms"] = total / 1000.0
    print(f"\nSPML reverse-map cache={cache}: total GC = {total / 1e3:.1f} ms")


def test_ablation_rmap_cache_amortises_reverse_mapping(benchmark):
    cached = benchmark.pedantic(_run, args=(True,), rounds=1, iterations=1)
    uncached = _run(False)
    later_cached = sum(c.pause_us for c in cached.gc.cycles[1:])
    later_uncached = sum(c.pause_us for c in uncached.gc.cycles[1:])
    # Later cycles are the ones the cache helps; expect a big multiple.
    assert later_uncached > 3 * later_cached
    # First cycles pay the same reverse-mapping bill either way.
    first_ratio = (
        cached.gc.cycles[0].pause_us / uncached.gc.cycles[0].pause_us
    )
    assert 0.8 < first_ratio < 1.2
    # Correctness unaffected: same survivors.
    assert np.array_equal(
        cached.gc.cycles[-1].live_after, uncached.gc.cycles[-1].live_after
    )
