"""Tests for the CriuSession monitored-dump API."""

import numpy as np
import pytest

from repro.core.tracking import Technique
from repro.errors import CheckpointError
from repro.trackers.criu import Criu, restore


def make_app(stack, n_pages=64):
    proc = stack.kernel.spawn("app", n_pages=n_pages)
    proc.space.add_vma(n_pages)
    stack.kernel.access(proc, np.arange(n_pages), True)
    return proc


def test_session_full_dump_then_incremental(stack):
    proc = make_app(stack)
    session = Criu(stack.kernel, Technique.EPML).begin(proc)
    r1 = session.dump(full=True)
    assert r1.pages_dumped == 64
    stack.kernel.access(proc, [3, 4], True)
    r2 = session.dump()
    assert r2.pages_dumped == 2
    image = session.finish()
    clone = restore(stack.kernel, image)
    got = stack.kernel.vm.mmu.read_page_contents(
        clone.space.pt, clone.space.mapped_vpns()
    )
    want = stack.kernel.vm.mmu.read_page_contents(
        proc.space.pt, proc.space.mapped_vpns()
    )
    assert np.array_equal(got, want)


def test_session_full_dump_resets_interval(stack):
    proc = make_app(stack)
    session = Criu(stack.kernel, Technique.PROC).begin(proc)
    session.dump(full=True)
    # Nothing dirtied since the full dump: incremental dump is empty.
    r = session.dump()
    assert r.pages_dumped == 0
    session.finish()


def test_session_dump_after_finish_rejected(stack):
    proc = make_app(stack)
    session = Criu(stack.kernel, Technique.ORACLE).begin(proc)
    session.dump()
    session.finish()
    with pytest.raises(CheckpointError):
        session.dump()


def test_session_init_cost_charged_once(stack):
    proc = make_app(stack)
    session = Criu(stack.kernel, Technique.EPML).begin(proc)
    r1 = session.dump()
    r2 = session.dump()
    assert r1.phases.init_us > 0
    assert r2.phases.init_us == 0.0
    session.finish()


def test_session_process_resumes_after_each_dump(stack):
    proc = make_app(stack)
    session = Criu(stack.kernel, Technique.EPML).begin(proc)
    session.dump()
    stack.kernel.access(proc, [0], True)  # still runnable
    session.dump()
    session.finish()


def test_custom_disk_write_cost(stack):
    """The image write charges the cost table's per-page disk rate."""
    proc = make_app(stack)
    _, report = Criu(stack.kernel, Technique.ORACLE).checkpoint(proc)
    assert report.phases.mw_us >= 64 * stack.costs.params.disk_write_us_per_page
