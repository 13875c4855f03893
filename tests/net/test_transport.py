"""Unit tests for the cost-charging transport and its fault sites."""

import pytest

from repro.core.clock import SimClock, World
from repro.core.costs import EV_MIGRATION_SEND, CostModel
from repro.errors import ConfigurationError, TransientError
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.net.link import Link
from repro.net.transport import PARTITION_RETRY_LIMIT, Transport, TransportSender


@pytest.fixture()
def net():
    clock = SimClock()
    costs = CostModel()
    return clock, costs, Transport(clock, costs)


def test_send_charges_latency_plus_pages(net):
    clock, costs, transport = net
    link = Link("l", us_per_page=2.0, latency_us=30.0)
    flow = transport.open_flow(link, "f")
    us = transport.send(flow, 100)
    assert us == 30.0 + 100 * 2.0
    assert clock.now_us == us
    assert (flow.pages_sent, flow.n_sends) == (100, 1)
    assert flow.retransmitted_pages == 0


def test_send_routes_event_to_clock_ledger(net):
    clock, _, transport = net
    flow = transport.open_flow(Link("l"), "f")
    transport.send(flow, 64, world=World.HYPERVISOR, event=EV_MIGRATION_SEND)
    assert clock.snapshot().event_count[EV_MIGRATION_SEND] == 64


def test_contention_scales_per_page_cost_not_latency(net):
    _, _, transport = net
    link = Link("l", us_per_page=2.0, latency_us=30.0)
    a = transport.open_flow(link, "a")
    b = transport.open_flow(link, "b")
    us = transport.send(flow=a, n_pages=100)
    assert us == 30.0 + 100 * 2.0 * 2  # two flows share the link
    transport.close_flow(b)
    assert transport.send(a, 100) == 30.0 + 100 * 2.0  # back to full speed


def test_duplicate_flow_id_rejected(net):
    _, _, transport = net
    link = Link("l")
    transport.open_flow(link, "f")
    with pytest.raises(ConfigurationError):
        transport.open_flow(link, "f")


def test_send_on_closed_flow_rejected(net):
    _, _, transport = net
    flow = transport.open_flow(Link("l"), "f")
    transport.close_flow(flow)
    transport.close_flow(flow)  # idempotent
    with pytest.raises(ConfigurationError):
        transport.send(flow, 1)


def test_drops_retransmit_within_the_send(net):
    clock, _, transport = net
    link = Link("l", us_per_page=1.0, latency_us=0.0)
    flow = transport.open_flow(link, "f")
    with FaultPlan([FaultSpec(FaultSite.NET_DROP, 0.5)]).active():
        us = transport.send(flow, 1000)
    assert flow.retransmitted_pages > 0
    # Lost pages cost time, not correctness: the payload count is intact
    # and the charge covers payload + retransmissions.
    assert flow.pages_sent == 1000
    assert us == pytest.approx(1000 + flow.retransmitted_pages)
    assert clock.now_us == us


def test_latency_spike_multiplies_latency_only(net):
    _, costs, transport = net
    link = Link("l", us_per_page=1.0, latency_us=40.0)
    flow = transport.open_flow(link, "f")
    with FaultPlan([FaultSpec(FaultSite.NET_LATENCY_SPIKE, 1.0)]).active():
        us = transport.send(flow, 10)
    assert us == 40.0 * costs.params.net_spike_factor + 10 * 1.0
    assert flow.latency_spikes == 1


def test_partition_backs_off_then_raises_transient(net):
    clock, costs, transport = net
    flow = transport.open_flow(Link("l"), "f")
    limit = PARTITION_RETRY_LIMIT
    with FaultPlan([FaultSpec(FaultSite.NET_PARTITION, 1.0)]).active():
        with pytest.raises(TransientError):
            transport.send(flow, 10)
    assert flow.partition_retries == limit
    assert flow.pages_sent == 0  # the transfer never went through
    # Linear backoff charged for every attempt before the budget ran out.
    expected = sum(
        costs.params.net_backoff_us * i for i in range(1, limit)
    )
    assert clock.now_us == pytest.approx(expected)


def test_partition_heals_within_retry_budget(net):
    clock, costs, transport = net
    flow = transport.open_flow(Link("l", us_per_page=1.0, latency_us=0.0), "f")
    plan = FaultPlan([FaultSpec(FaultSite.NET_PARTITION, 1.0, max_fires=3)])
    with plan.active():
        us = transport.send(flow, 10)
    assert flow.partition_retries == 3
    assert flow.pages_sent == 10
    assert us == 10.0  # the transfer itself, once the link came back
    # ...plus the three linear backoffs charged while it was down.
    backoff = costs.params.net_backoff_us
    assert clock.now_us == pytest.approx(10.0 + backoff * (1 + 2 + 3))


def test_faulted_sends_are_seed_deterministic():
    def run() -> tuple:
        clock = SimClock()
        transport = Transport(clock, CostModel())
        flow = transport.open_flow(Link("l", 1.0, 0.0), "f")
        plan = FaultPlan(
            [
                FaultSpec(FaultSite.NET_DROP, 0.2),
                FaultSpec(FaultSite.NET_LATENCY_SPIKE, 0.3),
            ],
            seed=11,
        )
        with plan.active():
            for _ in range(20):
                transport.send(flow, 200)
        return clock.now_us, flow.retransmitted_pages, flow.latency_spikes

    assert run() == run()


def test_transport_sender_adapts_flow_to_page_sender(net):
    clock, _, transport = net
    link = Link("l", us_per_page=2.0, latency_us=10.0)
    flow = transport.open_flow(link, "f")
    sender = TransportSender(transport, flow)
    assert sender.us_per_page == 2.0  # uncontended; contention at send time
    us = sender.send(50)
    assert us == 10.0 + 50 * 2.0
    assert clock.now_us == us
    transport.open_flow(link, "other")
    assert sender.us_per_page == 2.0  # property stays uncontended
    assert sender.send(50) == 10.0 + 50 * 2.0 * 2
