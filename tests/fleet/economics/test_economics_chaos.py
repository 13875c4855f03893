"""Chaos: no dirty page lost across reclaim/refault cycles.

The acceptance bar for the balloon: an audited dirty-page tracker run
*through* balloon inflate/deflate churn — with every fault site armed —
must stay complete (every missed page surfaced by a counter, none lost
silently), and guest memory contents must survive every cycle.
"""

import numpy as np
import pytest

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.core.tracking import Technique, make_tracker
from repro.errors import OutOfFramesError
from repro.experiments.faultmatrix import CHAOS_SEED, chaos_plan
from repro.faults.auditor import CompletenessAuditor
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.fleet.host import Host, VmSpec



def build(ratio: float = 2.0):
    host = Host("h0", SimClock(), CostModel(), mem_mb=16.0,
                overcommit_ratio=ratio)
    specs = [
        VmSpec(name=f"vm{i}", mem_mb=4.0, workload_pages=768,
               writes_per_round=96, write_fraction=0.9,
               compute_us_per_round=200.0, hot_fraction=0.25,
               seed=CHAOS_SEED + i)
        for i in range(4)
    ]
    return host, specs


def churn(host, fvms, rounds: int = 6) -> None:
    """Workload rounds with periodic reclaim pressure."""
    eco = host.economics
    for r in range(rounds):
        for fvm in fvms:
            fvm.run_round()
        # Alternate squeezing and letting refaults win frames back.
        if r % 2 == 0:
            try:
                eco.ensure_free(host.free_pages + 128)
            except OutOfFramesError:
                pass
        else:
            eco.rebalance()


def test_audited_tracker_clean_through_balloon_churn_under_chaos():
    host, specs = build()
    fvms = [host.place(s) for s in specs[:3]]
    for fvm in fvms:
        for _ in range(4):
            fvm.wss.record(200)
        fvm.wss.refresh_planning(4)
    audited = fvms[0]
    tracker = make_tracker(Technique.EPML, audited.kernel, audited.proc,
                           resync_on_loss=True)
    auditor = CompletenessAuditor(audited.kernel, audited.proc, tracker)
    auditor.start()
    audited.add_round_hook(auditor.collect)

    with chaos_plan(0.05, seed=CHAOS_SEED).active():
        host.place(specs[3])  # admission forces reclaim mid-chaos
        churn(host, fvms + [host.vms["vm3"]])

    audit = auditor.stop()  # raises CompletenessViolation on silent loss
    assert not audit.silent_loss
    assert audit.n_truth > 0
    assert host.economics.reclaimed_pages > 0
    assert host.economics.refault_pages > 0


def test_contents_survive_reclaim_refault_cycles_under_chaos():
    host, specs = build()
    fvm = host.place(specs[0])
    pt = fvm.proc.space.pt
    vpns = np.arange(specs[0].workload_pages, dtype=np.int64)
    driver = host.economics.drivers[fvm.name]

    plan = FaultPlan(
        [
            FaultSpec(FaultSite.HYPERCALL_TRANSIENT, 0.2),
            FaultSpec(FaultSite.FRAME_EXHAUSTION, 0.1),
        ],
        seed=CHAOS_SEED,
    )
    # Refault batches must respect the guest-frame float (mem - workload
    # = 256 pages here), just like real access rounds do.
    with plan.active():
        for _ in range(4):
            before = fvm.vm.mmu.read_page_contents(pt, vpns).copy()
            driver.inflate(200)
            missing = vpns[~pt.present_mask(vpns)]
            assert missing.size > 0
            fvm.kernel.access(fvm.proc, missing, False)  # refault by read
            after = fvm.vm.mmu.read_page_contents(pt, vpns)
            assert np.array_equal(before, after)
    # The armed transient faults really fired and were retried.
    assert driver._retrier.n_retries > 0
    assert driver._retrier.n_exhausted == 0


def test_balloon_churn_is_chaos_seed_deterministic():
    def fingerprint():
        host, specs = build()
        fvms = [host.place(s) for s in specs[:3]]
        for fvm in fvms:
            for _ in range(4):
                fvm.wss.record(200)
            fvm.wss.refresh_planning(4)
        with chaos_plan(0.05, seed=CHAOS_SEED).active():
            host.place(specs[3])
            churn(host, fvms + [host.vms["vm3"]])
        eco = host.economics
        return (
            host.clock.now_us,
            eco.reclaimed_pages,
            eco.refault_pages,
            eco.refault_faults,
            eco.n_pressure_events,
            {n: d.ballooned_pages for n, d in sorted(eco.drivers.items())},
        )

    assert fingerprint() == fingerprint()


def test_uffd_tracker_cannot_share_the_balloon_fd():
    """The UFD technique owns the process userfaultfd; on an overcommit
    host the balloon already holds it — the conflict must be loud."""
    from repro.errors import TrackingError

    host, specs = build()
    fvm = host.place(specs[0])
    tracker = make_tracker(Technique.UFD, fvm.kernel, fvm.proc)
    with pytest.raises(TrackingError):
        tracker.start()
