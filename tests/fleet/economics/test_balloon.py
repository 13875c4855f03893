"""Tests for the balloon driver: inflate, refault, content preservation."""

import numpy as np
import pytest

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.errors import ConfigurationError, OutOfFramesError, TrackingError
from repro.fleet.economics.balloon import BalloonDriver
from repro.fleet.host import Host, VmSpec


def make_host(ratio: float = 2.0, mem_mb: float = 16.0) -> Host:
    return Host("h0", SimClock(), CostModel(), mem_mb=mem_mb,
                overcommit_ratio=ratio)


def spec(name: str = "vm0", workload: int = 512, writes: int = 64) -> VmSpec:
    # 4 MiB footprint = 1024 pages; float = 1024 - workload.
    return VmSpec(name=name, mem_mb=4.0, workload_pages=workload,
                  writes_per_round=writes, seed=3)


def test_place_on_overcommit_host_installs_balloon():
    host = make_host()
    fvm = host.place(spec())
    driver = host.economics.drivers[fvm.name]
    assert driver.ballooned_pages == 0
    assert driver.resident_pages == 512


def test_inflate_frees_host_frames_and_holds_guest_frames():
    host = make_host()
    fvm = host.place(spec())
    driver = host.economics.drivers[fvm.name]
    free0 = host.free_pages
    guest_free0 = fvm.vm.guest_frames.n_free
    got = driver.inflate(100)
    assert got == 100
    assert host.free_pages == free0 + 100
    assert driver.ballooned_pages == 100
    assert driver.resident_pages == 412
    # Held guest frames stay OUT of the guest allocator: the guest can
    # never allocate an EPT-unbacked frame.
    assert fvm.vm.guest_frames.n_free == guest_free0


def test_inflate_zero_or_empty():
    host = make_host()
    fvm = host.place(spec())
    driver = host.economics.drivers[fvm.name]
    assert driver.inflate(0) == 0
    assert driver.inflate(-5) == 0


def test_refault_restores_exact_content():
    host = make_host()
    fvm = host.place(spec())
    driver = host.economics.drivers[fvm.name]
    pt = fvm.proc.space.pt
    vpns = np.arange(512, dtype=np.int64)
    before = fvm.vm.mmu.read_page_contents(pt, vpns).copy()

    got = driver.inflate(200)
    assert got == 200
    reclaimed = vpns[~pt.present_mask(vpns)]
    assert reclaimed.size == 200
    # Touch every reclaimed page with a *read*: MISSING faults fire, the
    # resolver deflates and reinstalls the saved tokens.
    fvm.kernel.access(fvm.proc, reclaimed, False)
    after = fvm.vm.mmu.read_page_contents(pt, vpns)
    assert np.array_equal(before, after)
    assert driver.ballooned_pages == 0
    assert driver.swapped_pages == 0
    assert driver.refault_pages == 200


def test_refaulted_write_goes_through_and_sticks():
    host = make_host()
    fvm = host.place(spec())
    driver = host.economics.drivers[fvm.name]
    pt = fvm.proc.space.pt
    driver.inflate(50)
    reclaimed = np.arange(512, dtype=np.int64)[~pt.present_mask(
        np.arange(512, dtype=np.int64))]
    before = {int(v): None for v in reclaimed}
    # Write the reclaimed pages: the refault must reinstall the old token
    # first (UFFDIO_COPY ordering), then the triggering write lands.
    fvm.kernel.access(fvm.proc, reclaimed, True)
    after = fvm.vm.mmu.read_page_contents(pt, reclaimed)
    assert len(set(int(t) for t in after)) == len(before)  # all rewritten


def test_cold_pages_are_victimized_first():
    host = make_host()
    fvm = host.place(spec())
    driver = host.economics.drivers[fvm.name]
    # Clear accessed bits, then touch a hot subset.
    fvm.vm.ept.clear_accessed()
    hot = np.arange(100, dtype=np.int64)
    fvm.kernel.access(fvm.proc, hot, False)
    driver.inflate(412 - 100)  # exactly the cold population
    pt = fvm.proc.space.pt
    # Every hot page must still be present.
    assert bool(pt.present_mask(hot).all())


def test_balloon_guards():
    host = make_host()
    from repro.fleet.host import FleetVm

    unbound = FleetVm(spec("loose"))
    with pytest.raises(ConfigurationError):
        BalloonDriver(unbound, host.economics)

    fvm = host.place(spec("vm1"))
    # The balloon already owns the process's userfaultfd; a second one
    # (or a UFD tracker) cannot share it.
    with pytest.raises(TrackingError):
        BalloonDriver(fvm, host.economics)


def test_tight_float_spec_is_rejected_on_overcommit_host():
    host = make_host()
    tight = VmSpec(name="tight", mem_mb=2.0, workload_pages=512,
                   writes_per_round=64, seed=3)  # footprint == workload
    with pytest.raises(ConfigurationError):
        host.place(tight)
    # The same spec is fine on a stock host.
    stock = Host("h1", SimClock(), CostModel(), mem_mb=16.0)
    stock.place(tight)


def test_close_detaches_refault_path():
    host = make_host()
    fvm = host.place(spec("vm2"))
    host.economics.detach(fvm.name)
    assert fvm.name not in host.economics.drivers
    assert fvm.proc.uffd is None


def test_balloon_charges_simulated_time():
    host = make_host()
    fvm = host.place(spec())
    driver = host.economics.drivers[fvm.name]
    t0 = host.clock.now_us
    driver.inflate(64)
    assert host.clock.now_us > t0  # copies + hypercall + shootdown cost


def test_deflate_all_restores_everything_exactly():
    host = make_host()
    fvm = host.place(spec())
    driver = host.economics.drivers[fvm.name]
    pt = fvm.proc.space.pt
    vpns = np.arange(512, dtype=np.int64)
    before = fvm.vm.mmu.read_page_contents(pt, vpns).copy()
    guest_free0 = fvm.vm.guest_frames.n_free
    driver.inflate(300)
    assert driver.deflate_all() == 300
    assert driver.ballooned_pages == 0
    assert driver.swapped_pages == 0
    assert bool(pt.present_mask(vpns).all())
    after = fvm.vm.mmu.read_page_contents(pt, vpns)
    assert np.array_equal(before, after)
    assert fvm.vm.guest_frames.n_free == guest_free0
    # Idempotent when empty.
    assert driver.deflate_all() == 0


def test_deflate_all_fails_loudly_when_only_the_draining_guest_can_give():
    """The drain's reclaim may fall back to the guest being drained (the
    requester is the last-resort victim).  Re-ballooning it leaves the
    image partial, so deflate_all must raise rather than return with
    pages still swapped, which a migration would lose silently."""
    host = make_host(ratio=4.0, mem_mb=8.0)
    fvm = host.place(spec())
    driver = host.economics.drivers[fvm.name]
    driver.inflate(400)
    # Another tenant's frames leave the host 50 short of the drain.
    host.hypervisor.host_mem.alloc(host.free_pages - 350)
    with pytest.raises(OutOfFramesError):
        driver.deflate_all()


def test_migrating_a_ballooned_vm_carries_swapped_pages():
    """The page sender only reads present pages; ``_begin`` must make
    the source image whole (deflate_all) or swapped tokens are silently
    dropped.  An absent workload page at the destination is exactly
    that loss."""
    from repro.fleet.orchestrator import MigrationOrchestrator, MigrationPolicy
    from repro.net.link import Link
    from repro.net.transport import Transport

    clock, costs = SimClock(), CostModel()
    hosts = [
        Host(f"h{i}", clock, costs, mem_mb=16.0, overcommit_ratio=2.0)
        for i in range(2)
    ]
    orch = MigrationOrchestrator(
        hosts, Transport(clock, costs), Link("l"),
        MigrationPolicy(downtime_slo_us=1e9, wss_intervals=2),
    )
    fvm = hosts[0].place(spec())
    driver = hosts[0].economics.drivers[fvm.name]
    driver.inflate(200)
    assert driver.ballooned_pages == 200

    report = orch.migrate(fvm, hosts[1])
    assert report.integrity_ok
    assert fvm.host is hosts[1]
    vpns = np.arange(512, dtype=np.int64)
    assert bool(fvm.proc.space.pt.present_mask(vpns).all())
    # Fresh, empty balloon on the destination; the source driver is gone.
    assert hosts[1].economics.drivers[fvm.name].ballooned_pages == 0
    assert fvm.name not in hosts[0].economics.drivers


def test_round_trip_restores_tokens_and_keeps_held_frames_lifo():
    """Inflate, refault a mixed read/write subset, deflate the rest: every
    reclaimed page gets back exactly its pre-reclaim token, the refault
    deflates the most recently held frames first, and no page stays in
    flight."""
    from repro.hypervisor.hypercalls import HC_OOH_BALLOON_DEFLATE

    host = make_host()
    fvm = host.place(spec())
    driver = host.economics.drivers[fvm.name]
    pt, mmu = fvm.proc.space.pt, fvm.vm.mmu
    vpns = np.arange(512, dtype=np.int64)
    before = mmu.read_page_contents(pt, vpns).copy()

    installed: dict[int, int] = {}
    real_write = mmu.write_page_contents

    def write(table, v, tokens):
        for page, tok in zip(v.tolist(), tokens.tolist()):
            assert page not in installed  # each page reinstalled once
            installed[page] = tok
        return real_write(table, v, tokens)

    deflated: list[list[int]] = []
    real_hypercall = fvm.vm.vcpu.hypercall

    def hypercall(nr, *args):
        if nr == HC_OOH_BALLOON_DEFLATE:
            deflated.append(np.asarray(args[0]).tolist())
        return real_hypercall(nr, *args)

    mmu.write_page_contents = write
    fvm.vm.vcpu.hypercall = hypercall

    assert driver.inflate(120) == 120
    assert driver.inflate(80) == 80
    held = list(driver._held_gpfns)
    assert len(held) == 200 and all(type(g) is int for g in held)
    reclaimed = vpns[~pt.present_mask(vpns)]
    assert reclaimed.size == driver.swapped_pages == 200

    # Refault 50 pages, every other one written.
    sub = reclaimed[::4]
    wmask = np.arange(sub.size) % 2 == 0
    fvm.kernel.access(fvm.proc, sub, wmask)
    assert deflated == [held[-sub.size:]]  # LIFO: newest held frames first
    assert driver._held_gpfns == held[: -sub.size]
    assert not driver._inflight.any()
    assert driver.swapped_pages == 200 - sub.size

    assert driver.deflate_all() == 200 - sub.size
    assert deflated[1] == held[: -sub.size]
    assert driver.swapped_pages == 0 and driver.ballooned_pages == 0

    assert sorted(installed) == reclaimed.tolist()
    assert all(installed[int(v)] == int(before[v]) for v in reclaimed)
    after = mmu.read_page_contents(pt, vpns)
    written = sub[wmask]
    keep = ~np.isin(vpns, written)
    assert np.array_equal(after[keep], before[keep])
    # The triggering writes landed on top of the reinstalled tokens.
    assert not np.any(after[written] == before[written])


def test_refault_clears_in_flight_when_reclaim_fails(monkeypatch):
    """A refault whose host-frame reclaim raises leaves no page in
    flight: the next reclaim may take any of them again."""
    from repro.errors import OutOfFramesError

    host = make_host()
    fvm = host.place(spec())
    driver = host.economics.drivers[fvm.name]
    pt = fvm.proc.space.pt
    driver.inflate(40)
    reclaimed = np.flatnonzero(~pt.present_mask(np.arange(512)))

    seen = []

    def no_frames(n_pages, requester=None):
        seen.append(bool(driver._inflight[reclaimed[:10]].all()))
        raise OutOfFramesError("forced")

    monkeypatch.setattr(driver.economics, "ensure_free", no_frames)
    with pytest.raises(OutOfFramesError):
        fvm.kernel.access(fvm.proc, reclaimed[:10], True)
    assert seen == [True]  # the batch was in flight while resolving
    assert not driver._inflight.any()
