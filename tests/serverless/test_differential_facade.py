"""Differential validation: the facade is a pure passthrough.

``UnifiedDirtyTracker(mode=X)`` must produce bit-identical dirty sets —
and leave the whole simulated machine in a bit-identical state — to
driving technique X directly, for every registered mode, with and
without the MMU's TLB fast path, and under the chaos leg (fault injection
seeded by ``faultmatrix.CHAOS_SEED``).  Each scenario runs the same fixed
script twice on fresh stacks differing only in facade-vs-direct.
"""

import numpy as np
import pytest

from repro.core.tracking import available_modes, make_tracker
from repro.experiments.faultmatrix import CHAOS_SEED
from repro.experiments.harness import build_stack
from repro.faults.auditor import CompletenessAuditor
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.serverless.tracker import UnifiedDirtyTracker

N_PAGES = 128
ROUNDS = 3
MODES = available_modes()

CHAOS = [
    FaultSpec(FaultSite.PML_ENTRY_DROP, 0.25),
    FaultSpec(FaultSite.RING_OVERFLOW, 0.25),
    FaultSpec(FaultSite.LOST_SELF_IPI, 0.2),
]

#: spml/epml must resync on loss under chaos or the comparison would
#: (legitimately) show missing pages; passed to BOTH legs.
_CHAOS_KWARGS = {
    "spml": {"resync_on_loss": True},
    "epml": {"resync_on_loss": True},
}


def _run(mode: str, facade: bool, fast_path: bool = True, chaos: bool = False):
    """One fixed scenario; returns (collects, machine-state tuple)."""
    stack = build_stack(vm_mb=16, pml_buffer_entries=32)
    mmu = stack.vm.mmu
    if not fast_path:
        # Every batch takes the full walk.
        mmu._try_fast_path = lambda *_: False
    proc = stack.kernel.spawn("app", n_pages=N_PAGES)
    proc.space.add_vma(N_PAGES)
    rng = np.random.default_rng(13)
    kwargs = _CHAOS_KWARGS.get(mode, {}) if chaos else {}
    injector = FaultPlan(CHAOS, seed=CHAOS_SEED).build() if chaos else None
    collects = []

    def body():
        stack.kernel.access(proc, np.arange(N_PAGES), True)  # prefault
        if facade:
            tracker = UnifiedDirtyTracker(stack.kernel, proc, mode, **kwargs)
        else:
            tracker = make_tracker(mode, stack.kernel, proc, **kwargs)
        tracker.start()
        for _ in range(ROUNDS):
            vpns = rng.integers(0, N_PAGES, size=N_PAGES // 2)
            stack.kernel.access(proc, vpns, True)
            # Rewrite the same pages as a sorted batch: every translation
            # is now cached and dirty, so this one can take the fast path.
            stack.kernel.access(proc, np.unique(vpns), True)
            collects.append([int(v) for v in tracker.collect()])
        tracker.stop()

    if injector is not None:
        with injector.active():
            body()
    else:
        body()

    pml = stack.vm.vcpu.pml
    state = (
        collects,
        stack.clock.now_us,
        dict(stack.clock.snapshot().event_count),
        pml.hyp.n_full_events,
        pml.guest.n_full_events,
        pml.hyp.n_dropped,
        pml.guest.n_dropped,
        pml.hyp.n_injected_drops,
        pml.guest.n_injected_drops,
        proc.space.pt.flags.tolist(),
        stack.vm.ept.flags.tolist(),
        mmu.host_mem._content.tolist(),
        mmu.n_fast_batches,
    )
    return collects, state


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fast_path", [True, False])
def test_facade_bit_identical(mode, fast_path):
    f_collects, f_state = _run(mode, facade=True, fast_path=fast_path)
    d_collects, d_state = _run(mode, facade=False, fast_path=fast_path)
    assert f_collects == d_collects
    assert f_state == d_state
    # Both legs are meaningful: the fast path fires only when enabled.
    assert (f_state[-1] > 0) == fast_path


@pytest.mark.parametrize("mode", MODES)
def test_facade_bit_identical_under_chaos(mode):
    """Fault-injection draws are positional: the facade must consume the
    exact same injector stream as the direct technique."""
    f_collects, f_state = _run(mode, facade=True, chaos=True)
    d_collects, d_state = _run(mode, facade=False, chaos=True)
    assert f_collects == d_collects
    assert f_state == d_state


@pytest.mark.parametrize("mode", MODES)
def test_facade_audited_clean_under_chaos(mode):
    """Under chaos, a facade-driven run must never lose a dirty page
    silently (CompletenessAuditor raises on silent loss)."""
    stack = build_stack(vm_mb=16, pml_buffer_entries=32)
    proc = stack.kernel.spawn("app", n_pages=N_PAGES)
    proc.space.add_vma(N_PAGES)
    stack.kernel.access(proc, np.arange(N_PAGES), True)
    facade = UnifiedDirtyTracker(
        stack.kernel, proc, mode, **_CHAOS_KWARGS.get(mode, {})
    )
    auditor = CompletenessAuditor(stack.kernel, proc, facade.tracker)
    rng = np.random.default_rng(17)
    with FaultPlan(CHAOS, seed=CHAOS_SEED).build().active():
        auditor.start()
        for _ in range(ROUNDS):
            stack.kernel.access(proc, rng.integers(0, N_PAGES, size=64), True)
            auditor.collect()
        report = auditor.stop()
    assert not report.silent_loss
