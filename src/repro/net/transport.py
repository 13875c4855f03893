"""Cost-charging transport over simulated links.

A :class:`Transport` owns flows and converts "send n pages over this
flow" into a single :class:`~repro.core.clock.SimClock` charge:

    ``us = latency + (n_pages + retransmits) * us_per_page * share_factor``

where ``share_factor`` is the link's concurrent-flow count at send time —
contention changes the cost of *this* transfer, not a queueing model.
Three fault sites perturb a send when a
:class:`~repro.faults.injector.FaultInjector` is active:

* ``NET_DROP`` — per-page loss; lost pages are retransmitted inside the
  same send (they cost time, not correctness);
* ``NET_LATENCY_SPIKE`` — multiplies this transfer's latency by
  ``CostParams.net_spike_factor``;
* ``NET_PARTITION`` — the link is unreachable: the transfer backs off
  (charging ``net_backoff_us * attempt``) and retries, raising
  :class:`~repro.errors.TransientError` once the retry budget is spent.

:class:`TransportSender` adapts a flow to the
:class:`~repro.hypervisor.migration.PageSender` protocol so
``LiveMigration`` transfers ride the shared network unmodified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.clock import SimClock, World
from repro.core.costs import (
    EV_MIGRATION_SEND,
    EV_NET_BACKOFF,
    CostModel,
)
from repro.errors import ConfigurationError, TransientError
from repro.faults import injector as finj
from repro.faults.plan import FaultSite
from repro.net.link import Link
from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = ["Flow", "Transport", "TransportSender"]

#: Backoff-and-retry attempts before a partitioned send gives up.
PARTITION_RETRY_LIMIT = 8


@dataclass
class Flow:
    """One open connection over a link, with transfer accounting."""

    flow_id: str
    link: Link
    closed: bool = False
    pages_sent: int = 0
    n_sends: int = 0
    retransmitted_pages: int = 0
    latency_spikes: int = 0
    partition_retries: int = 0


@dataclass
class Transport:
    """Flow factory + the one place network time is charged."""

    clock: SimClock
    costs: CostModel
    _flows: dict[str, Flow] = field(default_factory=dict, repr=False)

    def open_flow(self, link: Link, flow_id: str) -> Flow:
        if flow_id in self._flows:
            raise ConfigurationError(f"duplicate flow id: {flow_id}")
        link.attach(flow_id)
        flow = Flow(flow_id=flow_id, link=link)
        self._flows[flow_id] = flow
        if otr.ACTIVE is not None:
            otr.ACTIVE.metrics.inc("net.flows_opened")
            otr.ACTIVE.metrics.inc(f"net.link.{link.name}.flows")
        return flow

    def close_flow(self, flow: Flow) -> None:
        if flow.closed:
            return
        flow.closed = True
        flow.link.detach(flow.flow_id)
        self._flows.pop(flow.flow_id, None)

    def send(
        self,
        flow: Flow,
        n_pages: int,
        world: World = World.HYPERVISOR,
        event: str = EV_MIGRATION_SEND,
    ) -> float:
        """Move ``n_pages`` over ``flow``; charge and return elapsed us."""
        if flow.closed:
            raise ConfigurationError(f"send on closed flow: {flow.flow_id}")
        n_pages = int(n_pages)
        params = self.costs.params
        us_pp, latency = flow.link.resolve(params)

        attempts = 0
        while finj.ACTIVE is not None and finj.ACTIVE.should_fire(
            FaultSite.NET_PARTITION
        ):
            attempts += 1
            flow.partition_retries += 1
            if otr.ACTIVE is not None:
                otr.ACTIVE.emit(
                    EventKind.NET_FAULT,
                    site=FaultSite.NET_PARTITION.value,
                    link=flow.link.name,
                    flow=flow.flow_id,
                    attempt=attempts,
                )
            if attempts >= PARTITION_RETRY_LIMIT:
                raise TransientError(
                    f"link {flow.link.name} partitioned: "
                    f"{attempts} retries exhausted"
                )
            self.clock.charge(
                params.net_backoff_us * attempts, world, EV_NET_BACKOFF
            )

        retrans = 0
        if finj.ACTIVE is not None and n_pages > 0:
            retrans = finj.ACTIVE.drop_count(FaultSite.NET_DROP, n_pages)
            if retrans and otr.ACTIVE is not None:
                otr.ACTIVE.emit(
                    EventKind.NET_FAULT,
                    site=FaultSite.NET_DROP.value,
                    link=flow.link.name,
                    flow=flow.flow_id,
                    n_pages=retrans,
                )
        spiked = finj.ACTIVE is not None and finj.ACTIVE.should_fire(
            FaultSite.NET_LATENCY_SPIKE
        )
        if spiked:
            latency *= params.net_spike_factor
            flow.latency_spikes += 1
            if otr.ACTIVE is not None:
                otr.ACTIVE.emit(
                    EventKind.NET_FAULT,
                    site=FaultSite.NET_LATENCY_SPIKE.value,
                    link=flow.link.name,
                    flow=flow.flow_id,
                )

        share = flow.link.share_factor
        us = latency + (n_pages + retrans) * us_pp * share
        self.clock.charge(us, world, event, n_pages)
        flow.pages_sent += n_pages
        flow.n_sends += 1
        flow.retransmitted_pages += retrans
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.NET_SEND,
                link=flow.link.name,
                flow=flow.flow_id,
                n_pages=n_pages,
                n_flows=flow.link.n_flows,
                retransmitted=retrans,
                spiked=bool(spiked),
            )
        return us


class TransportSender:
    """:class:`PageSender` adapter: LiveMigration transfers over a flow."""

    def __init__(
        self,
        transport: Transport,
        flow: Flow,
        world: World = World.HYPERVISOR,
        event: str = EV_MIGRATION_SEND,
    ) -> None:
        self.transport = transport
        self.flow = flow
        self.world = world
        self.event = event

    @property
    def us_per_page(self) -> float:
        """Uncontended per-page cost (contention applies at send time)."""
        return self.flow.link.resolve(self.transport.costs.params)[0]

    def send(self, n_pages: int) -> float:
        return self.transport.send(
            self.flow, n_pages, world=self.world, event=self.event
        )
