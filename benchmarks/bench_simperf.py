"""Simulator performance: MMU walk, reverse-map index, runner engine.

Unlike the other benches (which regenerate paper artifacts), this file
measures the *simulator's own* wall-clock — the three-layer performance
pass that keeps the full non-quick sweep tractable:

* ``Mmu.access`` batch throughput, production walk + TLB fast path vs
  the multipass reference walk :class:`repro.emu.RefMmu` (target: >= 2x
  on a 1M-access workload);
* ``GuestKernel.access_plan`` vs the same batches as per-call
  ``access`` (target: no slower);
* ``PageTable.reverse_lookup`` with the cached GPFN->VPN index vs a
  cold index per lookup;
* ``runner all --quick`` end to end, optimized (memo-cache +
  ``--jobs 4``) vs the serial run without the experiment memo-cache
  (``REPRO_EXPERIMENT_CACHE=0``);
* the observability tax: the same hot loop with an active
  ``TraceSession`` vs the guard-only disabled path.

Simulated costs and results are bit-identical across all configurations
(see tests/integration/test_differential_mmu.py); only host wall-clock
changes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
from conftest import QUICK

from repro.emu import RefMmu
from repro.hw import vmcs
from repro.hw.ept import Ept
from repro.obs import trace as otr
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import Mmu
from repro.hw.pagetable import PTE_SOFT_DIRTY, PTE_UFD_WP, PTE_WRITABLE, PageTable
from repro.hw.pml import PmlCircuit
from repro.hw.tlb import Tlb

N_PAGES = 16384 if QUICK else 65536
BATCH = 16384
TARGET_ACCESSES = 200_000 if QUICK else 1_000_000


class _Handlers:
    """Minimal guest-kernel fault plumbing (identity-ish mappings)."""

    def __init__(self, pt: PageTable, ept: Ept, host: PhysicalMemory) -> None:
        self.pt = pt
        self.ept = ept
        self.host = host
        self._next_gpfn = 0

    def handle_minor_fault(self, vpns, write_mask=None) -> None:
        gpfns = np.arange(self._next_gpfn, self._next_gpfn + len(vpns))
        self._next_gpfn += len(vpns)
        self.ept.map(gpfns, self.host.alloc(len(vpns)))
        self.pt.map(vpns, gpfns)

    def handle_ufd_miss_fault(self, vpns, write_mask=None):
        return np.empty(0, dtype=np.int64)

    def handle_wp_fault(self, vpns, ufd_mask) -> None:
        self.pt.set_flags(vpns, PTE_WRITABLE | PTE_SOFT_DIRTY)
        self.pt.clear_flags(vpns, PTE_UFD_WP)


def _drive(production: bool) -> float:
    """Seconds to push ``TARGET_ACCESSES`` accesses through Mmu.access,
    microbench-style (sorted 16K-page write batches over a pre-faulted
    working set), on the production :class:`Mmu` or (``production``
    false) the :class:`RefMmu` reference walk."""
    host = PhysicalMemory(N_PAGES + 64)
    ept = Ept(N_PAGES + 64)
    pml = PmlCircuit(vmcs.Vmcs(), capacity=512)
    mmu = (Mmu if production else RefMmu)(ept, host, pml)
    pt = PageTable(N_PAGES)
    tlb = Tlb(N_PAGES)
    h = _Handlers(pt, ept, host)
    batches = [
        np.arange(lo, min(lo + BATCH, N_PAGES), dtype=np.int64)
        for lo in range(0, N_PAGES, BATCH)
    ]
    for b in batches:  # pre-fault (mlockall), outside the measurement
        mmu.access(pt, tlb, b, True, h)
    done = 0
    t0 = time.perf_counter()
    while done < TARGET_ACCESSES:
        for b in batches:
            mmu.access(pt, tlb, b, True, h)
            done += b.size
    return time.perf_counter() - t0


def test_mmu_access_throughput(benchmark):
    fused_s = benchmark.pedantic(_drive, args=(True,), rounds=1, iterations=1)
    multi_s = _drive(False)
    speedup = multi_s / fused_s
    fused_mps = TARGET_ACCESSES / fused_s / 1e6
    benchmark.extra_info.update(
        fused_s=fused_s, multipass_s=multi_s, speedup=speedup,
        fused_maccesses_per_s=fused_mps,
    )
    print(f"\nMmu.access {TARGET_ACCESSES} accesses: "
          f"fused {fused_s:.3f}s ({fused_mps:.1f} M/s), "
          f"multipass {multi_s:.3f}s, speedup {speedup:.2f}x")
    assert speedup >= 2.0


def test_access_plan_throughput(benchmark):
    """Access-plan submission vs per-batch kernel calls: one
    ``access_plan`` per phase pays the per-call kernel/scheduler/dispatch
    overhead once, so the same op stream must run no slower than the
    batch-at-a-time API (median plan/per-batch ratio <= 1.05)."""
    from repro.experiments.harness import build_stack
    from repro.guest.plan import PlanBuilder

    n_pages = 8192
    batch = 2048
    batches = [np.arange(lo, lo + batch, dtype=np.int64)
               for lo in range(0, n_pages, batch)]
    rounds = max(1, 4 * TARGET_ACCESSES // n_pages)

    def make_leg():
        stack = build_stack(vm_mb=64)
        kernel = stack.kernel
        proc = kernel.spawn("bench", n_pages=n_pages)
        proc.space.add_vma(n_pages)
        kernel.access(proc, np.arange(n_pages, dtype=np.int64), True)
        return kernel, proc

    kernel_p, proc_p = make_leg()
    b = PlanBuilder()
    for vpns in batches:
        b.write(vpns)
    plan = b.build()

    def drive_plan() -> float:
        t0 = time.perf_counter()
        for _ in range(rounds):
            kernel_p.access_plan(proc_p, plan)
        return time.perf_counter() - t0

    kernel_b, proc_b = make_leg()

    def drive_batches() -> float:
        t0 = time.perf_counter()
        for _ in range(rounds):
            for vpns in batches:
                kernel_b.access(proc_b, vpns, True)
        return time.perf_counter() - t0

    drive_plan(), drive_batches()  # warm both legs to the TLB fast path
    # Median of per-pair ratios, alternating which side runs first (the
    # recipe of test_smp_overhead_at_one_vcpu).
    plan_runs = [benchmark.pedantic(drive_plan, rounds=1, iterations=1)]
    batch_runs = [drive_batches()]
    for i in range(8):
        if i % 2:
            plan_runs.append(drive_plan())
            batch_runs.append(drive_batches())
        else:
            batch_runs.append(drive_batches())
            plan_runs.append(drive_plan())
    ratios = sorted(p / q for p, q in zip(plan_runs, batch_runs))
    ratio = ratios[len(ratios) // 2]
    plan_s, batch_s = min(plan_runs), min(batch_runs)
    benchmark.extra_info.update(
        plan_s=plan_s, per_batch_s=batch_s, ratio=ratio,
    )
    print(f"\naccess_plan {rounds}x{len(batches)} batches: "
          f"plan {plan_s:.3f}s, per-batch {batch_s:.3f}s, "
          f"median ratio {ratio:.3f}x")
    assert ratio <= 1.05


def test_reverse_lookup_index_reuse(benchmark):
    n = N_PAGES
    pt = PageTable(n)
    pt.map(np.arange(n, dtype=np.int64),
           np.random.default_rng(7).permutation(n).astype(np.int64))
    queries = [np.random.default_rng(i).integers(0, n, 256) for i in range(64)]

    def warm() -> float:
        t0 = time.perf_counter()
        for q in queries:
            pt.reverse_lookup(q)
        return time.perf_counter() - t0

    warm_s = benchmark.pedantic(warm, rounds=1, iterations=1)

    cold_s = 0.0
    for q in queries:
        pt._rev_index = None  # simulate the pre-index per-call rebuild
        t0 = time.perf_counter()
        pt.reverse_lookup(q)
        cold_s += time.perf_counter() - t0
    speedup = cold_s / warm_s
    benchmark.extra_info.update(warm_s=warm_s, cold_s=cold_s, speedup=speedup)
    print(f"\nreverse_lookup x{len(queries)}: warm index {warm_s * 1e3:.2f}ms, "
          f"cold index {cold_s * 1e3:.2f}ms, speedup {speedup:.1f}x")
    assert speedup > 1.0


def test_tracing_overhead(benchmark):
    """Observability tax on the hot MMU loop: an active ``detail=False``
    session (the long-run/CI configuration) vs tracing off.  Disabled
    tracing is a guard-only check; enabled tracing emits one WRITE event
    per batch, so the overhead must stay a small constant factor."""
    off_s = benchmark.pedantic(_drive, args=(True,), rounds=3, iterations=1)
    session = otr.TraceSession(
        capacity=otr.ENV_SESSION_CAPACITY, detail=False
    )
    on_runs = []
    with session.active():
        for _ in range(3):
            on_runs.append(_drive(True))
    # Best-of-3 on both sides: the QUICK loop is milliseconds, so single
    # rounds are noise-dominated.
    off_s = min(off_s, _drive(True), _drive(True))
    on_s = min(on_runs)
    overhead = on_s / off_s
    benchmark.extra_info.update(
        tracing_off_s=off_s, tracing_on_s=on_s, overhead=overhead,
        events_emitted=session.n_emitted,
    )
    print(f"\nMmu.access tracing overhead: off {off_s:.3f}s, "
          f"on {on_s:.3f}s ({session.n_emitted} events), "
          f"{overhead:.2f}x")
    assert session.n_emitted > 0
    assert session.metrics.counter("mmu.writes") >= TARGET_ACCESSES
    # Generous bound: the tax is per-batch, not per-access, so even noisy
    # CI machines should land nowhere near it.
    assert overhead < 2.0


def test_smp_overhead_at_one_vcpu(benchmark):
    """SMP tax on the single-vCPU hot path: ``kernel.access`` routes
    through the scheduler's vCPU lookup and per-vCPU TLB/PML selection;
    at ``n_vcpus=1`` that plumbing must cost <= 1.05x of the
    seed-equivalent inline body (state checks + ``Mmu.access`` against
    the process's only TLB and the BSP's PML buffer)."""
    from repro.experiments.harness import build_stack
    from repro.guest.process import ProcessState

    n_pages = 8192
    stack = build_stack(vm_mb=64, n_vcpus=1)
    kernel = stack.kernel
    proc = kernel.spawn("bench", n_pages=n_pages)
    proc.space.add_vma(n_pages)
    batch = np.arange(n_pages, dtype=np.int64)
    kernel.access(proc, batch, True)  # pre-fault outside the measurement
    # 4x the usual access target: the per-call SMP tax is nanoseconds,
    # so the loop must be long enough for the ratio to beat timer noise.
    rounds = max(1, 4 * TARGET_ACCESSES // n_pages)

    def drive_smp() -> float:
        t0 = time.perf_counter()
        for _ in range(rounds):
            kernel.access(proc, batch, True)
        return time.perf_counter() - t0

    def seed_access(process, vpns, write):
        # The pre-SMP kernel.access body: no vcpu_of lookup, no per-vCPU
        # indexing — the process's single TLB and the BSP's PML circuit.
        if process.state is ProcessState.DEAD:
            raise RuntimeError
        if process.state is ProcessState.STOPPED:
            raise RuntimeError
        handler = kernel._fault_handlers[process.pid]
        result = kernel.vm.mmu.access(
            process.space.pt, process.space.tlb, vpns, write, handler
        )
        for listener in kernel._access_listeners:
            listener(process, result)
        return result

    def drive_seed() -> float:
        t0 = time.perf_counter()
        for _ in range(rounds):
            seed_access(proc, batch, True)
        return time.perf_counter() - t0

    drive_smp(), drive_seed()  # warm both paths
    # Median of per-pair ratios, alternating which side runs first in
    # each pair: equal work on both sides, so the ratio cancels the
    # machine's speed and the alternation cancels ordering bias; the
    # median strips scheduling-noise outliers.
    smp_runs = [benchmark.pedantic(drive_smp, rounds=1, iterations=1)]
    seed_runs = [drive_seed()]
    for i in range(8):
        if i % 2:
            smp_runs.append(drive_smp())
            seed_runs.append(drive_seed())
        else:
            seed_runs.append(drive_seed())
            smp_runs.append(drive_smp())
    ratios = sorted(s / e for s, e in zip(smp_runs, seed_runs))
    overhead = ratios[len(ratios) // 2]
    smp_s, seed_s = min(smp_runs), min(seed_runs)
    benchmark.extra_info.update(
        smp_s=smp_s, seed_equiv_s=seed_s, overhead=overhead,
    )
    print(f"\nkernel.access SMP tax @ n_vcpus=1: smp {smp_s:.3f}s, "
          f"seed-equivalent {seed_s:.3f}s, overhead {overhead:.3f}x")
    assert overhead <= 1.05


def _runner_wallclock(extra_args: list[str], env_overrides: dict) -> float:
    env = dict(os.environ, **env_overrides)
    env.setdefault("PYTHONPATH", "src")
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", "all", "--quick",
         *extra_args],
        check=True, capture_output=True, env=env,
    )
    return time.perf_counter() - t0


def test_runner_all_quick_wallclock(benchmark):
    """End-to-end: optimized `runner all --quick --jobs 4` vs the serial
    run with no experiment memo-cache."""
    opt_s = benchmark.pedantic(
        _runner_wallclock, args=(["--jobs", "4"], {}), rounds=1, iterations=1
    )
    base_s = _runner_wallclock([], {"REPRO_EXPERIMENT_CACHE": "0"})
    speedup = base_s / opt_s
    benchmark.extra_info.update(opt_s=opt_s, baseline_s=base_s, speedup=speedup)
    print(f"\nrunner all --quick: optimized --jobs 4 {opt_s:.2f}s, "
          f"baseline {base_s:.2f}s, speedup {speedup:.2f}x")
    assert speedup >= 2.0
