"""Tests for CRIU checkpoint/restore."""

import numpy as np
import pytest

from repro.core.tracking import Technique
from repro.errors import CheckpointError, TransientError
from repro.retry import EV_RETRY_BACKOFF, backoff_us
from repro.trackers.criu import Criu, restore

TECHS = [Technique.PROC, Technique.UFD, Technique.SPML, Technique.EPML,
         Technique.ORACLE]


def spawn_app(stack, n_pages=64):
    proc = stack.kernel.spawn("app", n_pages=n_pages)
    proc.space.add_vma(n_pages, "heap")
    stack.kernel.access(proc, np.arange(n_pages), True)
    return proc


@pytest.mark.parametrize("technique", TECHS)
def test_checkpoint_restore_roundtrip(stack, technique):
    proc = spawn_app(stack)
    expected = stack.kernel.vm.mmu.read_page_contents(
        proc.space.pt, proc.space.mapped_vpns()
    )
    criu = Criu(stack.kernel, technique)
    image, report = criu.checkpoint(proc)
    clone = restore(stack.kernel, image)
    got = stack.kernel.vm.mmu.read_page_contents(
        clone.space.pt, clone.space.mapped_vpns()
    )
    assert np.array_equal(got, expected)
    assert report.pages_dumped >= 64
    assert report.phases.total_us > 0


@pytest.mark.parametrize("technique", TECHS)
def test_predump_rounds_capture_mutations(stack, technique):
    proc = spawn_app(stack)
    criu = Criu(stack.kernel, technique)

    def mutate():
        stack.kernel.access(proc, [1, 2, 3], True)

    image, report = criu.checkpoint(proc, predump_rounds=2,
                                    run_between_rounds=mutate)
    # Rounds: full dump + 2 pre-dumps + final.
    assert report.rounds == 4
    # Restored contents equal the final state.
    expected = stack.kernel.vm.mmu.read_page_contents(
        proc.space.pt, proc.space.mapped_vpns()
    )
    clone = restore(stack.kernel, image)
    got = stack.kernel.vm.mmu.read_page_contents(
        clone.space.pt, clone.space.mapped_vpns()
    )
    assert np.array_equal(got, expected)


def test_checkpoint_resumes_process(stack):
    proc = spawn_app(stack)
    Criu(stack.kernel, Technique.EPML).checkpoint(proc)
    # Process can keep running after the checkpoint.
    stack.kernel.access(proc, [0], True)


def test_predump_requires_runner(stack):
    proc = spawn_app(stack)
    with pytest.raises(CheckpointError):
        Criu(stack.kernel).checkpoint(proc, predump_rounds=1)
    with pytest.raises(CheckpointError):
        Criu(stack.kernel).checkpoint(proc, predump_rounds=-1)


def test_md_phase_dominated_by_reverse_mapping_for_spml(stack):
    """SPML's checkpoint MD >> EPML's (Fig. 8's mechanism)."""
    md = {}
    for technique in (Technique.SPML, Technique.EPML):
        proc = spawn_app(stack, n_pages=256)
        criu = Criu(stack.kernel, technique)

        def mutate(p=proc):
            stack.kernel.access(p, np.arange(200), True)

        _, report = criu.checkpoint(proc, predump_rounds=1,
                                    run_between_rounds=mutate)
        md[technique] = report.phases.md_us
    assert md[Technique.SPML] > 10 * md[Technique.EPML]


def test_mw_phase_cheaper_with_ring_buffer_techniques(stack):
    """/proc's MW includes the pagemap walk (Fig. 7's mechanism)."""
    mw = {}
    for technique in (Technique.PROC, Technique.EPML):
        proc = spawn_app(stack, n_pages=256)
        criu = Criu(stack.kernel, technique)

        def mutate(p=proc):
            stack.kernel.access(p, np.arange(50), True)

        _, report = criu.checkpoint(proc, predump_rounds=1,
                                    run_between_rounds=mutate)
        # Compare only the incremental rounds: subtract the full dump,
        # which is identical across techniques (present-page writes).
        full_dump = 256 * stack.costs.params.disk_write_us_per_page
        mw[technique] = report.phases.mw_us - full_dump
    assert mw[Technique.EPML] < mw[Technique.PROC]


def test_final_freeze_dumps_residue(stack):
    proc = spawn_app(stack)
    criu = Criu(stack.kernel, Technique.EPML)

    def mutate():
        stack.kernel.access(proc, [7], True)

    image, report = criu.checkpoint(proc, predump_rounds=1,
                                    run_between_rounds=mutate)
    # Mutation happened before the final round; dirty residue captured
    # either in the pre-dump or in the freeze round.
    assert report.pages_dumped >= 64 + 1


def _assert_restores_live(stack, proc, image):
    clone = restore(stack.kernel, image)
    expected = stack.kernel.vm.mmu.read_page_contents(
        proc.space.pt, proc.space.mapped_vpns()
    )
    got = stack.kernel.vm.mmu.read_page_contents(
        clone.space.pt, clone.space.mapped_vpns()
    )
    assert np.array_equal(got, expected)


def test_iterative_predump_converges(stack):
    proc = spawn_app(stack, n_pages=128)

    def run_round():
        stack.kernel.access(proc, np.arange(8), True)

    image, report = Criu(stack.kernel, Technique.EPML).checkpoint(
        proc, predump_rounds=10, run_between_rounds=run_round,
        threshold_pages=16,
    )
    # Full dump, one pre-dump round of 8 <= 16 pages, then the freeze.
    assert report.rounds == 3 < 10 + 2
    assert [m.n_pages for m in image.memory] == [128, 8, 0]
    assert report.phases.freeze_us < report.phases.total_us
    _assert_restores_live(stack, proc, image)


def test_iterative_predump_nonconvergent_still_correct(stack):
    proc = spawn_app(stack, n_pages=64)

    def hot_round():
        stack.kernel.access(proc, np.arange(64), True)

    image, report = Criu(stack.kernel, Technique.ORACLE).checkpoint(
        proc, predump_rounds=2, run_between_rounds=hot_round,
        threshold_pages=1,
    )
    # Never converged: every pre-dump round ran.
    assert report.rounds == 2 + 2
    assert report.phases.freeze_us < report.phases.total_us
    _assert_restores_live(stack, proc, image)


def test_threshold_pages_validated(stack):
    proc = spawn_app(stack)
    with pytest.raises(CheckpointError):
        Criu(stack.kernel).checkpoint(proc, threshold_pages=-1)


def _fail_collect_once(tracker, on_call):
    """Make the ``on_call``-th collect of ``tracker`` raise a transient
    error (the retry then runs the real collect)."""
    real = tracker.collect
    calls = [0]

    def collect():
        calls[0] += 1
        if calls[0] == on_call:
            raise TransientError("injected transient collect failure")
        return real()

    tracker.collect = collect


@pytest.mark.parametrize("technique", TECHS)
@pytest.mark.parametrize("on_call", [1, 2], ids=["predump", "final"])
def test_checkpoint_retries_transient_collect(stack, monkeypatch, technique,
                                              on_call):
    proc = spawn_app(stack)
    sessions = []
    begin = Criu.begin

    def flaky_begin(self, process):
        session = begin(self, process)
        _fail_collect_once(session.tracker, on_call)
        sessions.append(session)
        return session

    monkeypatch.setattr(Criu, "begin", flaky_begin)

    def mutate():
        stack.kernel.access(proc, [1, 2, 3], True)

    image, report = Criu(stack.kernel, technique).checkpoint(
        proc, predump_rounds=1, run_between_rounds=mutate
    )
    assert sessions[0].retries == 1
    assert report.rounds == 3
    assert stack.clock.event_count(EV_RETRY_BACKOFF) == 1
    assert stack.clock.event_us(EV_RETRY_BACKOFF) == backoff_us(1)
    _assert_restores_live(stack, proc, image)


@pytest.mark.parametrize("technique", TECHS)
@pytest.mark.parametrize("on_call", [1, 2], ids=["full", "incremental"])
def test_session_dump_retries_transient_collect(stack, technique, on_call):
    proc = spawn_app(stack)
    session = Criu(stack.kernel, technique).begin(proc)
    # Collect 1 resets the interval after the full dump; 2 is the
    # incremental dump's.
    _fail_collect_once(session.tracker, on_call)
    stack.kernel.access(proc, [4, 5], True)
    session.dump(full=True)
    stack.kernel.access(proc, [6], True)
    assert session.dump().pages_dumped == 1
    image = session.finish()
    assert session.retries == 1
    assert stack.clock.event_count(EV_RETRY_BACKOFF) == 1
    assert stack.clock.event_us(EV_RETRY_BACKOFF) == backoff_us(1)
    _assert_restores_live(stack, proc, image)


def test_restore_empty_image_rejected(stack):
    from repro.trackers.criu.images import CheckpointImage

    with pytest.raises(CheckpointError):
        restore(stack.kernel, CheckpointImage(pid=1, name="x", space_pages=4))


def test_image_flatten_keeps_latest_version(stack):
    proc = spawn_app(stack, n_pages=8)
    criu = Criu(stack.kernel, Technique.ORACLE)

    def mutate():
        stack.kernel.access(proc, [0], True)  # page 0 changes every round

    image, _ = criu.checkpoint(proc, predump_rounds=2,
                               run_between_rounds=mutate)
    flat = image.flatten()
    # Page 0 appears once, with its latest token.
    assert int((flat.vpns == 0).sum()) == 1
    current = stack.kernel.vm.mmu.read_page_contents(
        proc.space.pt, np.array([0])
    )[0]
    assert flat.tokens[flat.vpns == 0][0] == current
