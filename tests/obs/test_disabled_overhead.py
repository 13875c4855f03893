"""Zero-overhead contract for tracing, mirroring the fault subsystem's
``tests/faults/test_differential_disabled.py``: with no session active —
or even *with* one — simulated results are bit-identical to a run without
the observability subsystem in the loop (same clocks, same event stream,
same collected pages).  Emission is pure observation."""

import numpy as np

from repro.config import env_flag
from repro.core.tracking import Technique, make_tracker
from repro.experiments.harness import build_stack
from repro.obs import trace as otr

N_PAGES = 512
ROUNDS = 4


def _run(technique, with_session=False):
    stack = build_stack(vm_mb=64)
    proc = stack.kernel.spawn("app", n_pages=N_PAGES)
    proc.space.add_vma(N_PAGES)
    stack.kernel.access(proc, np.arange(N_PAGES), True)
    tracker = make_tracker(technique, stack.kernel, proc)
    rng = np.random.default_rng(21)

    def body():
        tracker.start()
        collected = []
        for _ in range(ROUNDS):
            stack.kernel.access(
                proc, rng.integers(0, N_PAGES, size=N_PAGES // 4), True
            )
            collected.append(tracker.collect())
        tracker.stop()
        return collected

    if with_session:
        session = otr.TraceSession()
        with session.active():
            collected = body()
    else:
        session = None
        collected = body()
    return stack.clock.snapshot(), collected, session


def test_active_session_is_bit_identical():
    """Tracing on vs off: every simulated observable matches exactly."""
    for technique in (Technique.SPML, Technique.EPML):
        base_snap, base_out, _ = _run(technique)
        traced_snap, traced_out, session = _run(technique, with_session=True)
        assert session is not None and session.n_emitted > 0
        assert traced_snap.now_us == base_snap.now_us
        assert traced_snap.world_us == base_snap.world_us
        assert traced_snap.event_us == base_snap.event_us
        assert traced_snap.event_count == base_snap.event_count
        assert len(base_out) == len(traced_out)
        for a, b in zip(base_out, traced_out):
            assert np.array_equal(a, b)


def test_no_session_emits_nothing():
    """Without activation the module global stays None (unless the
    REPRO_TRACE env leg armed a process-wide session at import)."""
    if env_flag("REPRO_TRACE", False):
        assert otr.ACTIVE is not None
    else:
        assert otr.ACTIVE is None


def test_session_nesting_restores_previous():
    outer = otr.TraceSession()
    inner = otr.TraceSession()
    prev = otr.ACTIVE
    with outer.active():
        assert otr.ACTIVE is outer
        with inner.active():
            assert otr.ACTIVE is inner
        assert otr.ACTIVE is outer
    assert otr.ACTIVE is prev
