"""Satellite 4: post-copy fallback under a dirty rate the link can't beat.

A guest whose dirty rate exceeds the link bandwidth can never converge
under pre-copy: the orchestrator must max out auto-converge throttling,
trip the downtime SLO, switch to post-copy — and the destination must end
up with *exactly* the source's final memory (full-state differential via
:mod:`tests.smp.helpers`), modulo only pages the destination guest itself
wrote after the switchover.
"""

import numpy as np

from repro.core.clock import SimClock, World
from repro.core.costs import EV_MIGRATION_SEND, EV_NET_PAGE_PULL, CostModel
from repro.fleet.host import Host, VmSpec
from repro.fleet.orchestrator import (
    THROTTLE_MAX,
    MigrationOrchestrator,
    MigrationPolicy,
)
from repro.fleet.postcopy import PostCopyDestination, PostCopyReport
from repro.guest.uffd import UfdMode
from repro.hw.pagetable import PTE_DIRTY
from repro.net.link import Link
from repro.net.transport import Transport
from tests.smp.helpers import full_state, process_memory_state

N_PAGES = 2048

#: Dirty rate far beyond the default link's ~1 page / 3.3 us: ~1200
#: unique pages per 200 us round can never drain within an 800 us SLO.
HOT = VmSpec(
    name="hot",
    mem_mb=8.0,
    workload_pages=N_PAGES,
    writes_per_round=1800,
    write_fraction=1.0,
    compute_us_per_round=200.0,
    seed=13,
)


def _fleet(policy: MigrationPolicy):
    clock = SimClock()
    costs = CostModel()
    hosts = [Host(f"h{i}", clock, costs, mem_mb=24.0) for i in range(2)]
    orch = MigrationOrchestrator(
        hosts, Transport(clock, costs), Link("backbone"), policy
    )
    return clock, hosts, orch


def test_slo_trip_switches_to_postcopy_with_source_memory_intact():
    """Pure push drain (no destination rounds): after the migration the
    destination memory equals the paused source's bit for bit."""
    policy = MigrationPolicy(
        downtime_slo_us=800.0, wss_intervals=0, postcopy_dest_rounds=0
    )
    costs_params_downtime = CostModel().params.postcopy_state_us
    _, hosts, orch = _fleet(policy)
    fvm = hosts[0].place(HOT)
    src_kernel, src_proc = fvm.kernel, fvm.proc

    report = orch.migrate(fvm, dst=hosts[1], destroy_source=False)

    assert report.mode == "postcopy"
    assert report.precopy.aborted_reason == "postcopy_slo"
    assert report.precopy.converged is False
    assert report.throttle_peak == THROTTLE_MAX  # ramp maxed out
    assert report.downtime_us == costs_params_downtime
    assert report.downtime_us <= policy.downtime_slo_us  # SLO honoured
    post = report.postcopy
    assert post is not None
    assert post.missing_pages > 0  # residual dirty set rode the wire
    assert post.pulled_pages == 0  # the dest guest never ran...
    assert post.pushed_pages == post.missing_pages  # ...all pushed
    assert report.integrity_ok

    # Full-state differential: the destination *is* the paused source.
    src_vpns, src_tokens = process_memory_state(src_kernel, src_proc)
    dst_vpns, dst_tokens = process_memory_state(fvm.kernel, fvm.proc)
    assert np.array_equal(src_vpns, dst_vpns)
    assert np.array_equal(src_tokens, dst_tokens)
    # The VM actually moved.
    assert fvm.host is hosts[1]
    assert fvm.name in hosts[1].vms and fvm.name not in hosts[0].vms


def test_destination_guest_pulls_missing_pages_on_fault():
    """With the destination guest running during the drain, hot pages
    materialise by demand pull (uffd MISSING) and the rest by push —
    every on-the-wire page moves exactly once."""
    policy = MigrationPolicy(downtime_slo_us=800.0, wss_intervals=0)
    _, hosts, orch = _fleet(policy)
    fvm = hosts[0].place(HOT)

    report = orch.migrate(fvm, dst=hosts[1])

    assert report.mode == "postcopy"
    post = report.postcopy
    assert post.pull_faults > 0
    assert post.pulled_pages > 0
    assert post.pulled_pages + post.pushed_pages == post.missing_pages
    # Destination progress is excluded, everything else matches the
    # source: the orchestrator's own differential came back clean.
    assert report.integrity_ok
    assert fvm.throttle == 0.0  # post-copy guests run unthrottled
    # Source half was torn down (destroy_source defaults to True).
    assert HOT.name not in hosts[0].hypervisor.vms


def test_without_slo_precopy_never_falls_back():
    """No SLO: the hot guest still can't converge, but the failure mode
    is the stock no-progress stop-and-copy, never post-copy."""
    policy = MigrationPolicy(downtime_slo_us=None, wss_intervals=0)
    _, hosts, orch = _fleet(policy)
    fvm = hosts[0].place(HOT)

    report = orch.migrate(fvm, dst=hosts[1], destroy_source=False)

    assert report.mode == "precopy"
    assert report.postcopy is None
    assert report.precopy.aborted_reason == "no_progress"
    assert report.integrity_ok


# -- differential: page-indexed arrays vs the dict/set protocol ---------


class _DictSetPostCopy:
    """Oracle: the post-copy destination with its page state kept in a
    ``dict[int, int]`` image and a ``set[int]`` wire, as first written."""

    def __init__(
        self, kernel, proc, transport, flow, missing_vpns, final_tokens,
        push_batch_pages=256,
    ):
        self.kernel = kernel
        self.proc = proc
        self.transport = transport
        self.flow = flow
        self.final_tokens = final_tokens
        self.push_batch_pages = push_batch_pages
        self.on_wire = {int(v) for v in missing_vpns}
        self.report = PostCopyReport(missing_pages=len(self.on_wire))
        resident = np.array(
            sorted(v for v in final_tokens if v not in self.on_wire),
            dtype=np.int64,
        )
        if resident.size:
            kernel.access(proc, resident, True)
            tokens = np.array(
                [final_tokens[int(v)] for v in resident], dtype=np.uint64
            )
            kernel.vm.mmu.write_page_contents(proc.space.pt, resident, tokens)
            proc.space.pt.clear_flags(resident, PTE_DIRTY)
        self.uffd = kernel.create_uffd(proc)
        for vma in proc.space.vmas:
            self.uffd.register(vma, UfdMode.MISSING)
        self.uffd.add_miss_resolver(self._on_miss)

    def _on_miss(self, vpns, write_mask):
        vpns = np.asarray(vpns, dtype=np.int64)
        pulls = [int(v) for v in vpns if int(v) in self.on_wire]
        if pulls:
            self.on_wire.difference_update(pulls)
            self.report.pull_faults += 1
            self.report.pulled_pages += len(pulls)
            self.transport.send(
                self.flow, len(pulls), world=World.TRACKED,
                event=EV_NET_PAGE_PULL,
            )
        have = [int(v) for v in vpns if int(v) in self.final_tokens]
        if have:
            tokens = np.array(
                [self.final_tokens[v] for v in have], dtype=np.uint64
            )
            self.kernel.vm.mmu.write_page_contents(
                self.proc.space.pt, np.array(have, dtype=np.int64), tokens
            )

    def push_step(self):
        if not self.on_wire:
            return 0
        batch = np.array(
            sorted(self.on_wire)[: self.push_batch_pages], dtype=np.int64
        )
        self.on_wire.difference_update(int(v) for v in batch)
        self.transport.send(
            self.flow, int(batch.size), world=World.HYPERVISOR,
            event=EV_MIGRATION_SEND,
        )
        self.kernel.access(self.proc, batch, False)
        self.report.pushed_pages += int(batch.size)
        return int(batch.size)


#: The paused source image: every page but each 7th (those are missing
#: from the image); every 3rd imaged page is still on the wire.
FINAL_VPNS = np.setdiff1d(np.arange(256), np.arange(0, 256, 7))
WIRE = FINAL_VPNS[::3]
W = WIRE.tolist()
DIFF_SPEC = VmSpec(
    name="diff", mem_mb=2.0, workload_pages=256, writes_per_round=1, seed=5
)


class _Side:
    """One destination stack with a recorder on every observable effect:
    transport sends, content writes and guest accesses."""

    def __init__(self, oracle: bool) -> None:
        clock, costs = SimClock(), CostModel()
        self.clock = clock
        host = Host("h", clock, costs, mem_mb=8.0)
        self.vm, self.kernel, self.proc = host.create_shell(DIFF_SPEC)
        transport = Transport(clock, costs)
        flow = transport.open_flow(Link("l"), "f")
        self.sends, self.writes, self.accesses = [], [], []

        real_send, real_write = transport.send, self.vm.mmu.write_page_contents
        real_access = self.kernel.access

        def send(flow, n_pages, world, event):
            self.sends.append((n_pages, world, event))
            return real_send(flow, n_pages, world=world, event=event)

        def write(pt, vpns, tokens):
            self.writes.append(list(zip(vpns.tolist(), tokens.tolist())))
            return real_write(pt, vpns, tokens)

        def access(proc, vpns, write):
            self.accesses.append((np.asarray(vpns).tolist(), write))
            return real_access(proc, vpns, write)

        transport.send = send
        self.vm.mmu.write_page_contents = write
        self.kernel.access = access

        final_tokens = np.random.default_rng(11).integers(
            0, 2**63, size=FINAL_VPNS.size, dtype=np.int64
        ).astype(np.uint64)
        if oracle:
            self.dest = _DictSetPostCopy(
                self.kernel, self.proc, transport, flow, WIRE,
                {int(v): int(t) for v, t in zip(FINAL_VPNS, final_tokens)},
                push_batch_pages=16,
            )
        else:
            self.dest = PostCopyDestination(
                self.kernel, self.proc, transport, flow, WIRE,
                FINAL_VPNS, final_tokens, push_batch_pages=16,
            )
        self.pushes = []

    def push(self) -> int:
        before = len(self.accesses)
        n = self.dest.push_step()
        self.pushes.append((n, self.accesses[before:]))
        return n

    def miss(self, vpns: list[int], write: bool) -> None:
        """Deliver one MISSING batch, duplicates kept, as the fault path
        does: map the absent pages, then run the resolvers."""
        vpns = np.array(vpns, dtype=np.int64)
        pt = self.proc.space.pt
        fresh = np.unique(vpns[~pt.present_mask(vpns)])
        if fresh.size:
            pt.map(fresh, self.vm.guest_frames.alloc(int(fresh.size)))
        self.dest.uffd.deliver_miss_faults(
            vpns, np.full(vpns.shape, write)
        )

    def observed(self) -> tuple:
        r = self.dest.report
        return (
            (r.missing_pages, r.pulled_pages, r.pushed_pages, r.pull_faults),
            self.pushes,
            self.writes,
            self.sends,
            self.accesses,
            full_state(self.vm, self.clock, self.proc),
        )


def _script(side: _Side) -> None:
    side.push()  # W[0:16] leave the wire, ascending
    # Guest faults through the MMU: two on-wire pages, one resident, one
    # unimaged (7) and one already pushed (the last two do not fault).
    side.kernel.access(side.proc, np.array([W[-1], W[-2], 2, 7, W[0]]), True)
    # Duplicates of on-wire pages beside unimaged ones, in batch order.
    side.miss([W[-3], 14, W[-3], W[-4], 14, 21, W[-4]], False)
    side.push()
    # Pages already pulled or pushed fault in again: nothing to pull.
    side.miss([W[-3], W[-3], W[-1], W[0], 14], True)
    side.kernel.access(side.proc, np.array([W[-5], 28, 3]), False)
    side.push()
    side.miss([W[-6], W[-7], W[-7], 35], True)
    while side.push():
        pass


def test_array_destination_matches_dict_set_oracle():
    """Same faults and pushes through both implementations: equal
    reports, push batches (contents and order), written (vpn, token)
    pairs, send charges, accesses and the full simulator state."""
    sides = [_Side(oracle=True), _Side(oracle=False)]
    for side in sides:
        _script(side)
    want, got = sides[0].observed(), sides[1].observed()
    for name, w, g in zip(
        ("report", "pushes", "writes", "sends", "accesses", "state"),
        want, got,
    ):
        assert g == w, name
    # The script exercised every path it claims to.
    report = sides[1].dest.report
    assert report.pull_faults == 4
    assert report.missing_pages == WIRE.size
    # Duplicate pulls count once per occurrence, as the oracle counts.
    assert report.pulled_pages == 10  # 7 distinct pages
    assert report.pushed_pages == WIRE.size - 7
    assert not sides[1].dest.on_wire.any()
