"""Property-based diff-merge battery (hypothesis).

Two layers:

* **pure merge properties** — hypothesis-generated interleaved instance
  writes drive :meth:`Snapshot.merge` directly: the merged image is
  independent of diff list order, idempotent on re-merge, and
  byte-identical to an oracle that applies writes in commit order.
* **simulator-backed battery, per technique** — generated write
  schedules (including seeded vCPU migrations on a 2-vCPU stack) run as
  real function-instance lifecycles under every registered tracking
  mode; the merged snapshot must equal the pure oracle prediction, which
  by construction depends only on the write sets and commit order —
  never on the SMP schedule, the technique, or tracker over-reporting.

Each per-technique battery runs 200+ generated schedules (the issue's
acceptance bar); stacks are built once per mode and reused, since an
instance lifecycle starts and ends with a dead process.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.tracking import available_modes
from repro.experiments.harness import build_stack
from repro.serverless.snapshot import Snapshot, SnapshotDiff, output_tokens
from repro.serverless.tracker import UnifiedDirtyTracker

REGION_PAGES = 16
MODES = available_modes()

# ---------------------------------------------------------------------
# pure merge properties
# ---------------------------------------------------------------------
_tokens = st.integers(min_value=1, max_value=2**64 - 1)
_writes = st.dictionaries(
    st.integers(min_value=0, max_value=REGION_PAGES - 1), _tokens,
    min_size=0, max_size=REGION_PAGES,
)
_schedules = st.lists(_writes, min_size=0, max_size=6)


def _as_diffs(schedule):
    diffs = []
    for seq, writes in enumerate(schedule):
        offsets = np.array(sorted(writes), dtype=np.int64)
        toks = np.array([writes[o] for o in sorted(writes)], dtype=np.uint64)
        diffs.append(SnapshotDiff(f"i{seq}", seq, offsets, toks))
    return diffs


def _oracle_apply(schedule):
    """Ground truth: writes applied one by one in commit order."""
    tokens = Snapshot.base("fn", REGION_PAGES).tokens
    for writes in schedule:
        for offset, tok in writes.items():
            tokens[offset] = np.uint64(tok)
    return tokens


@settings(max_examples=250, deadline=None)
@given(schedule=_schedules, data=st.data())
def test_merge_matches_oracle_and_is_order_independent(schedule, data):
    diffs = _as_diffs(schedule)
    expected = _oracle_apply(schedule)

    in_order = Snapshot.base("fn", REGION_PAGES)
    in_order.merge(diffs)
    np.testing.assert_array_equal(in_order.tokens, expected)

    # Any permutation of the diff list merges identically: commit_seq,
    # not list position, decides the winner.
    shuffled = data.draw(st.permutations(diffs))
    permuted = Snapshot.base("fn", REGION_PAGES)
    permuted.merge(shuffled)
    assert permuted.digest() == in_order.digest()

    # Re-merging the same diffs is idempotent on contents.
    before = in_order.digest()
    in_order.merge(diffs)
    assert in_order.digest() == before


@settings(max_examples=250, deadline=None)
@given(schedule=_schedules)
def test_incremental_merge_equals_batch_merge(schedule):
    """Merging burst-by-burst (freeze between) ends at the same image as
    one batch merge — the diff -> merge -> re-snapshot lifecycle loses
    nothing."""
    diffs = _as_diffs(schedule)
    batch = Snapshot.base("fn", REGION_PAGES)
    batch.merge(diffs)

    rolling = Snapshot.base("fn", REGION_PAGES)
    for diff in diffs:
        rolling.merge([diff])
        rolling = rolling.freeze()
    assert rolling.digest() == batch.digest()


# ---------------------------------------------------------------------
# simulator-backed battery, per technique
# ---------------------------------------------------------------------
_STACKS: dict[str, object] = {}


def _get_stack(mode: str):
    # One long-lived 2-vCPU stack per mode: instances are short-lived by
    # design, so examples cannot leak state into each other through it.
    if mode not in _STACKS:
        _STACKS[mode] = build_stack(vm_mb=16, pml_buffer_entries=32, n_vcpus=2)
    return _STACKS[mode]


_write_sets = st.sets(
    st.integers(min_value=0, max_value=REGION_PAGES - 1), min_size=1, max_size=8
)
_instances = st.lists(_write_sets, min_size=1, max_size=3)
#: Mid-run vCPU migration schedule (the SMP interleaving under test).
_migrations = st.lists(st.integers(min_value=0, max_value=1), max_size=3)


def _run_lifecycle(stack, mode, snapshot, request_id, write_set, migrations):
    """One instance lifecycle, with seeded vCPU migrations mid-run."""
    kernel = stack.kernel
    writes = np.array(sorted(write_set), dtype=np.int64)
    instance_id = f"t0/{request_id}"
    proc = kernel.spawn(instance_id, n_pages=REGION_PAGES)
    proc.space.add_vma(REGION_PAGES)
    kernel.access(proc, np.arange(REGION_PAGES), False)
    kwargs = {"resync_on_loss": True} if mode in ("spml", "epml") else {}
    facade = UnifiedDirtyTracker(kernel, proc, mode, **kwargs)
    region = facade.map_regions(snapshot)
    facade.start()
    try:
        chunks = np.array_split(writes, len(migrations) + 1)
        for idx, chunk in enumerate(chunks):
            if idx > 0:
                kernel.scheduler.migrate(proc, migrations[idx - 1])
            if chunk.size:
                kernel.access(proc, chunk, True)
        kernel.vm.mmu.write_page_contents(
            proc.space.pt, writes, output_tokens(instance_id, writes)
        )
        diff = facade.extract_diff(region, instance_id, commit_seq=request_id)
    finally:
        facade.stop()
        kernel.exit_process(proc)
    return diff


_REQUEST_BASE = {m: 0 for m in MODES}


def _battery(mode, instances, migrations):
    stack = _get_stack(mode)
    snapshot = Snapshot.base("fn", REGION_PAGES)
    # Unique request ids per example so output tokens never collide
    # between an example and its shrunk variants.
    base = _REQUEST_BASE[mode]
    _REQUEST_BASE[mode] += len(instances)
    diffs = []
    for k, write_set in enumerate(instances):
        writes = np.array(sorted(write_set), dtype=np.int64)
        request_id = base + k
        diff = _run_lifecycle(
            stack, mode, snapshot, request_id, write_set, migrations
        )
        # Byte-exactness: the diff claims exactly the written offsets,
        # whatever the technique reported (over-reports are trimmed).
        np.testing.assert_array_equal(diff.offsets, writes)
        np.testing.assert_array_equal(
            diff.tokens, output_tokens(f"t0/{request_id}", writes)
        )
        diffs.append(diff)
    snapshot.merge(diffs)
    # Oracle prediction: last writer wins in commit order; depends only
    # on write sets + ids, never on mode or the migration schedule.
    expected = Snapshot.base("fn", REGION_PAGES).tokens
    for k, write_set in enumerate(instances):
        writes = np.array(sorted(write_set), dtype=np.int64)
        expected[writes] = output_tokens(f"t0/{base + k}", writes)
    np.testing.assert_array_equal(snapshot.tokens, expected)


def _make_battery_test(mode):
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(instances=_instances, migrations=_migrations)
    def test(instances, migrations):
        _battery(mode, instances, migrations)

    test.__name__ = f"test_sim_merge_battery_{mode}"
    return test


for _mode in MODES:
    globals()[f"test_sim_merge_battery_{_mode}"] = _make_battery_test(_mode)
del _mode
