"""A function instance survives a mid-run tracker force-detach.

The serverless contract is byte-exactness end to end: even when the OoH
module force-detaches underneath a running instance (crash-only
teardown), the fallback chain's conservative resync plus the facade's
content filter must still produce a *complete* diff, and the merged
snapshot must be identical to an undisturbed run's.
"""

import numpy as np

from repro.core.ooh import OohModule
from repro.core.tracking import Technique
from repro.serverless.snapshot import Snapshot, output_tokens
from repro.serverless.tracker import UnifiedDirtyTracker

N_PAGES = 64


def _prefaulted(stack):
    proc = stack.kernel.spawn("fn", n_pages=N_PAGES)
    proc.space.add_vma(N_PAGES)
    stack.kernel.access(proc, np.arange(N_PAGES), False)
    return proc


def test_instance_diff_complete_despite_force_detach(stack):
    proc = _prefaulted(stack)
    snap = Snapshot.base("fn", N_PAGES)
    facade = UnifiedDirtyTracker(
        stack.kernel, proc, "fallback",
        chain=(Technique.SPML, Technique.PROC), failure_threshold=1,
    )
    region = facade.map_regions(snap)
    facade.start()
    # First half of the instance's writes land in the SPML log...
    early = np.array([2, 7, 11], dtype=np.int64)
    stack.kernel.access(proc, early, True)
    # ...then the module crashes out from under the tracker...
    OohModule.shared(stack.kernel).force_detach()
    # ...and the instance keeps writing, now unlogged by any mechanism.
    late = np.array([11, 30, 55], dtype=np.int64)
    stack.kernel.access(proc, late, True)
    written = np.union1d(early, late)
    stack.kernel.vm.mmu.write_page_contents(
        proc.space.pt, written, output_tokens("fn/0", written)
    )
    diff = facade.extract_diff(region, "fn/0", commit_seq=0)
    facade.stop()
    # Conservative over-report trimmed to the byte-exact changed set:
    # nothing lost (the post-detach writes included), nothing extra.
    np.testing.assert_array_equal(diff.offsets, written)
    np.testing.assert_array_equal(diff.tokens, output_tokens("fn/0", written))
    assert facade.tracker.n_fallbacks == 1

    # The merged snapshot equals one from an undisturbed oracle run.
    snap.merge([diff])
    expected = Snapshot.base("fn", N_PAGES)
    expected.tokens[written] = output_tokens("fn/0", written)
    assert snap.digest() == expected.digest()
