"""Unit tests for the faabric-style UnifiedDirtyTracker facade."""

import numpy as np
import pytest

from repro.core.tracking import available_modes
from repro.errors import TrackingError
from repro.faults.auditor import CompletenessAuditor
from repro.obs import trace as otr
from repro.obs.events import EventKind
from repro.serverless.driver import ServerlessConfig, tenant_plans
from repro.serverless.instance import FunctionInstance
from repro.serverless.snapshot import Snapshot, output_tokens
from repro.serverless.tracker import UnifiedDirtyTracker

N_PAGES = 64


def _prefaulted(stack, n_pages=N_PAGES):
    proc = stack.kernel.spawn("fn", n_pages=n_pages)
    proc.space.add_vma(n_pages)
    stack.kernel.access(proc, np.arange(n_pages), False)
    return proc


def test_mode_selection_and_get_type(stack):
    """faabric's ``getType`` is the ``mode`` attribute; an unknown mode
    fails fast and names what is available."""
    proc = _prefaulted(stack)
    facade = UnifiedDirtyTracker(stack.kernel, proc, "oracle")
    assert facade.mode == "oracle"
    assert facade.tracker.technique.value == "oracle"
    with pytest.raises(TrackingError, match="no-such-mode") as err:
        UnifiedDirtyTracker(stack.kernel, proc, "no-such-mode")
    assert all(mode in str(err.value) for mode in available_modes())


def test_available_modes_cover_registry(stack):
    modes = available_modes()
    assert set(modes) >= {"proc", "ufd", "spml", "epml", "oracle", "fallback"}
    proc = _prefaulted(stack)
    # Every advertised mode constructs through the facade.
    for mode in modes:
        UnifiedDirtyTracker(stack.kernel, proc, mode)


def test_map_regions_lands_snapshot_contents(stack):
    proc = _prefaulted(stack)
    snap = Snapshot.base("fn", N_PAGES)
    facade = UnifiedDirtyTracker(stack.kernel, proc, "oracle")
    session = otr.TraceSession()
    with session.active():
        region = facade.map_regions(snap)
    got = stack.vm.mmu.read_page_contents(
        proc.space.pt, np.arange(N_PAGES, dtype=np.int64)
    )
    np.testing.assert_array_equal(got, snap.tokens)
    [event] = session.trace.by_kind(EventKind.SNAPSHOT_MAP)
    assert event.fields["n_pages"] == N_PAGES
    assert region.snapshot_version == snap.version
    # The mapping must not look like dirtying: tracking starts clean.
    facade.start()
    assert facade.collect().size == 0
    facade.stop()


def test_extract_diff_is_byte_exact(stack):
    proc = _prefaulted(stack)
    snap = Snapshot.base("fn", N_PAGES)
    facade = UnifiedDirtyTracker(stack.kernel, proc, "oracle")
    region = facade.map_regions(snap)
    facade.start()
    written = np.array([3, 9, 17, 40], dtype=np.int64)
    stack.kernel.access(proc, written, True)
    # Pages 17 and 40 get their original contents written back: they are
    # tracker-dirty but byte-identical, so the diff must exclude them.
    restored = np.array([17, 40], dtype=np.int64)
    stack.vm.mmu.write_page_contents(
        proc.space.pt, restored, region.base_tokens[restored]
    )
    changed = np.array([3, 9], dtype=np.int64)
    stack.vm.mmu.write_page_contents(
        proc.space.pt, changed, output_tokens("fn/0", changed)
    )
    diff = facade.extract_diff(region, "fn/0", commit_seq=0)
    facade.stop()
    np.testing.assert_array_equal(diff.offsets, changed)
    np.testing.assert_array_equal(diff.tokens, output_tokens("fn/0", changed))


def test_facade_is_auditable(stack):
    """The auditor audits the technique the facade wraps."""
    proc = _prefaulted(stack)
    facade = UnifiedDirtyTracker(stack.kernel, proc, "epml")
    auditor = CompletenessAuditor(stack.kernel, proc, facade.tracker)
    auditor.start()
    stack.kernel.access(proc, np.arange(32), True)
    auditor.collect()
    report = auditor.stop()
    assert report.technique == "epml"
    assert not report.silent_loss
    assert report.capture_rate == 1.0


def test_instance_collects_exactly_its_write_footprint(stack, monkeypatch):
    """Oracle mode: for every tenant variant, the dirty set an instance
    collects is its ``write_vpns``, which is sorted and distinct."""
    cfg = ServerlessConfig(n_tenants=2, region_pages=N_PAGES)
    collected = []
    get_dirty_offsets = UnifiedDirtyTracker.get_dirty_offsets

    def spy(self, region):
        dirty = get_dirty_offsets(self, region)
        collected.append(region.start_vpn + dirty)
        return dirty

    monkeypatch.setattr(UnifiedDirtyTracker, "get_dirty_offsets", spy)
    snap = Snapshot.base("fn", N_PAGES)
    request_id = 0
    for tenant_idx in range(cfg.n_tenants):
        for plan in tenant_plans(cfg, tenant_idx):
            instance = FunctionInstance(
                stack.kernel, "oracle", snap, f"t{tenant_idx}", request_id,
                plan, cfg.compute_us,
            )
            write_vpns = instance.write_vpns
            assert write_vpns.size and (np.diff(write_vpns) > 0).all()
            collected.clear()
            instance.run(commit_seq=request_id)
            [dirty] = collected
            np.testing.assert_array_equal(dirty, write_vpns)
            request_id += 1
    assert request_id == cfg.n_tenants * cfg.plan_variants
