"""Canonical small runs whose event streams are frozen as golden traces.

One fixed scenario per technique: a 16 MiB VM, a 128-page process, three
rounds of seeded random writes, a collect per round.  The PML buffer is
shrunk to 32 entries so buffer-full events (and their vmexit / self-IPI
consequences) appear in even these tiny traces.

The prefault pass runs *inside* the session on purpose: demand paging and
the initial dirty sweep are part of the frozen contract, and the WRITE
events it emits make the written-set invariant checkable from the trace
alone.

The vCPU count is pinned explicitly (never inherited from ``REPRO_VCPUS``)
so the frozen byte streams survive the SMP CI matrix leg.  The 2-vCPU
variant migrates the process between rounds, exercising per-vCPU PML
buffers, the EPML schedule hooks, and cross-vCPU TLB shootdowns in the
frozen contract.
"""

import numpy as np

from repro.core.tracking import make_tracker
from repro.experiments.harness import build_stack
from repro.obs import trace as otr

GOLDEN_TECHNIQUES = ("spml", "epml", "oracle")
#: Techniques with a 2-vCPU golden variant (``<technique>-smp2.jsonl``).
GOLDEN_SMP_TECHNIQUES = ("spml", "epml")
N_PAGES = 128
ROUNDS = 3
SEED = 7


def canonical_run(
    technique: str, n_vcpus: int = 1, session: otr.TraceSession | None = None
) -> otr.TraceSession:
    """Run the frozen scenario for ``technique`` into ``session`` (a fresh
    default one when None); return the session."""
    stack = build_stack(vm_mb=16, pml_buffer_entries=32, n_vcpus=n_vcpus)
    proc = stack.kernel.spawn("app", n_pages=N_PAGES)
    proc.space.add_vma(N_PAGES)
    rng = np.random.default_rng(SEED)
    session = session if session is not None else otr.TraceSession()
    with session.active():
        stack.kernel.access(proc, np.arange(N_PAGES), True)
        tracker = make_tracker(technique, stack.kernel, proc)
        tracker.start()
        for r in range(ROUNDS):
            if n_vcpus > 1:
                # Bounce the process across vCPUs so every round logs
                # into a different per-vCPU PML buffer.
                stack.kernel.scheduler.migrate(proc, r % n_vcpus)
            vpns = rng.integers(0, N_PAGES, size=3 * N_PAGES // 4)
            stack.kernel.access(proc, vpns, True)
            if n_vcpus > 1:
                # Collect from a vCPU other than the writer: the dirty
                # translations still sit in the writer's TLB, so EPML's
                # re-arm must issue a genuine cross-vCPU shootdown.
                stack.kernel.scheduler.migrate(proc, (r + 1) % n_vcpus)
            tracker.collect()
        tracker.stop()
    return session
