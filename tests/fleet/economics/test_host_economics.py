"""Tests for overcommit accounting, admission, and the reclaim controller."""

import numpy as np
import pytest

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.errors import ConfigurationError, OutOfFramesError
from repro.fleet.economics.placement import choose_host, pack, wss_headroom_pages
from repro.fleet.economics.reclaim import MIN_RESIDENT_PAGES, SLACK_PAGES
from repro.fleet.host import Host, VmSpec


def make_host(ratio: float, name: str = "h0", mem_mb: float = 16.0) -> Host:
    return Host(name, SimClock(), CostModel(), mem_mb=mem_mb,
                overcommit_ratio=ratio)


def spec(name: str, mem_mb: float = 4.0, workload: int = 512,
         writes: int = 64) -> VmSpec:
    return VmSpec(name=name, mem_mb=mem_mb, workload_pages=workload,
                  writes_per_round=writes, seed=5)


def shrink(fvm, pages: int) -> None:
    """Drive the VM's WSS history down to ``pages`` (past hysteresis)."""
    for _ in range(4):
        fvm.wss.record(pages)
    fvm.wss.refresh_planning(4)


def test_ratio_validation_and_gating():
    with pytest.raises(ConfigurationError):
        make_host(0.5)
    assert make_host(1.0).economics is None
    assert make_host(1.5).economics is not None


def test_stock_host_admit_is_fits():
    host = make_host(1.0)  # 4096 frames
    s = spec("a")  # 1024-page footprint
    assert host.admit(s) == host.fits(s.mem_pages)
    for i in range(4):
        host.place(spec(f"vm{i}"))
    assert not host.admit(spec("one-more"))


def test_overcommit_admit_uses_commit_limit_and_wss():
    host = make_host(1.5)  # commit limit 6144 nominal over 4096 physical
    for i in range(4):
        fvm = host.place(spec(f"vm{i}"))
        shrink(fvm, 64)
    assert host.nominal_pages == 4096
    # Nominal 5120 <= 6144 and hot (4*64) + need is tiny: admitted.
    assert host.admit(spec("fifth"), wss_pages=64)
    host.place(spec("fifth"))
    assert host.nominal_pages == 5120 > host.capacity_pages
    # A sixth would push nominal to 6144 == limit: still admitted;
    # a seventh breaks the commit limit.
    host.place(spec("sixth"))
    assert not host.admit(spec("seventh"), wss_pages=64)


def test_admit_rejects_when_hot_demand_exceeds_physical():
    host = make_host(4.0)  # commit limit far away
    for i in range(3):
        host.place(spec(f"vm{i}"))  # estimates stay at workload: 512 each
    # hot = 1536; candidate wss 3000 * 1.1 headroom > 4096 - 1536.
    assert not host.admit(spec("big", mem_mb=16.0, workload=3000), 3000)
    assert host.admit(spec("small"), 64)


def test_place_balloons_residents_down_boot_big_balloon_down():
    host = make_host(2.0)
    residents = [host.place(spec(f"vm{i}")) for i in range(4)]
    # The fourth placement already had to reclaim to keep the slack.
    assert host.free_pages == SLACK_PAGES
    for fvm in residents:
        shrink(fvm, 64)
    fifth = host.place(spec("fifth"))
    eco = host.economics
    assert eco.reclaimed_pages >= 1024  # the new footprint came from reclaim
    assert fifth.name in eco.drivers
    assert host.nominal_pages == 5120
    assert host.free_pages >= SLACK_PAGES


def test_evict_detaches_driver():
    host = make_host(2.0)
    fvm = host.place(spec("vm0"))
    assert "vm0" in host.economics.drivers
    host.evict(fvm)
    assert "vm0" not in host.economics.drivers
    assert host.vms == {}


def test_ensure_free_prefers_biggest_excess_name_tiebreak():
    host = make_host(2.0)
    a = host.place(spec("aaa"))
    b = host.place(spec("bbb"))
    shrink(a, 64)   # excess ~448
    shrink(b, 400)  # excess ~112
    freed = host.economics.ensure_free(host.free_pages + 100)
    assert freed == 100
    da, db = host.economics.drivers["aaa"], host.economics.drivers["bbb"]
    assert da.ballooned_pages == 100  # a had the bigger voluntary excess
    assert db.ballooned_pages == 0


def test_ensure_free_forced_pass_and_exhaustion():
    host = make_host(8.0, mem_mb=8.0)  # 2048 frames
    a = host.place(spec("vm0"))  # 1024 pages, estimates stay pessimistic
    # Voluntary reclaimable is 0 (resident == target); the forced pass
    # still squeezes down to min_resident_pages.
    freed = host.economics.ensure_free(host.free_pages + 200)
    assert freed == 200
    # Demanding more than forced reclaim can give raises.
    with pytest.raises(OutOfFramesError):
        host.economics.ensure_free(host.capacity_pages * 2)
    assert host.economics.drivers["vm0"].resident_pages >= MIN_RESIDENT_PAGES


def test_reclaim_is_deterministic():
    def run():
        host = make_host(2.0)
        vms = [host.place(spec(f"vm{i}")) for i in range(4)]
        for fvm in vms:
            shrink(fvm, 96)
        host.place(spec("fifth"))
        eco = host.economics
        return (
            host.clock.now_us,
            eco.reclaimed_pages,
            {n: d.ballooned_pages for n, d in eco.drivers.items()},
        )

    assert run() == run()


def test_pressure_signal():
    host = make_host(2.0)
    assert host.pressure == 0.0
    host.place(spec("vm0"))
    assert host.pressure == pytest.approx(512 / 4096)
    host.reserved_pages += 1024
    assert host.pressure == pytest.approx((512 + 1024) / 4096)


def test_rebalance_restores_slack():
    host = make_host(2.0)
    vms = [host.place(spec(f"vm{i}")) for i in range(4)]
    for fvm in vms:
        shrink(fvm, 64)
    host.place(spec("fifth"))
    # Consume the slack via refaults, then rebalance.
    eco = host.economics
    target = SLACK_PAGES
    assert host.free_pages >= target
    eco.rebalance()
    assert host.free_pages >= target


# -- placement ---------------------------------------------------------
def test_choose_host_best_fit_and_tiebreak():
    clock, costs = SimClock(), CostModel()
    small = Host("h-small", clock, costs, mem_mb=8.0)
    big = Host("h-big", clock, costs, mem_mb=32.0)
    s = spec("vm0")
    # Best fit: the host left with the least WSS headroom wins.
    assert choose_host([big, small], s) is small
    # Ties break on host_id.
    twin_a = Host("a", clock, costs, mem_mb=8.0)
    twin_b = Host("b", clock, costs, mem_mb=8.0)
    assert choose_host([twin_b, twin_a], s) is twin_a


def test_pack_first_fit_decreasing():
    clock, costs = SimClock(), CostModel()
    hosts = [Host(f"h{i}", clock, costs, mem_mb=8.0) for i in range(2)]
    specs = [spec("small", workload=128), spec("large", workload=1500,
                                               mem_mb=8.0)]
    placed, rejected = pack(hosts, specs)
    # Descending estimated WSS: "large" placed first.
    assert [f.name for f in placed] == ["large", "small"]
    assert rejected == []
    assert wss_headroom_pages(hosts[0]) < hosts[0].capacity_pages


def test_pack_returns_rejects():
    clock, costs = SimClock(), CostModel()
    hosts = [Host("h0", clock, costs, mem_mb=8.0)]  # 2048 frames
    specs = [spec(f"vm{i}") for i in range(3)]  # 3 x 1024 pages
    placed, rejected = pack(hosts, specs)
    assert len(placed) == 2
    assert [s.name for s in rejected] == ["vm2"]


def test_reservations_count_against_admission():
    host = make_host(1.0)
    host.reserved_pages = host.capacity_pages - 512
    assert not host.admit(spec("vm0"))  # needs 1024, only 512 available
    over = make_host(1.5)
    over.reserved_pages = over.capacity_pages - 100
    assert not over.admit(spec("vm0"), wss_pages=512)
