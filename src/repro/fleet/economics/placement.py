"""WSS-aware bin packing: place VMs by estimated demand, not footprint.

Admission goes through :meth:`~repro.fleet.host.Host.admit` — nominal
footprints against the overcommit commit limit, estimated working sets
(plus headroom) against physical capacity.  Ranking is best-fit by WSS:
the feasible host left with the *least* WSS headroom after placement
wins, which packs guests tightly and preserves the emptier hosts for the
demand spikes the estimators have not seen yet.  Ties break on
``host_id`` so packing is deterministic.

:func:`pack` is the batch form — first-fit-decreasing over the offered
specs' (never-sampled, so whole-workload) working sets, the classic
bin-packing heuristic — used by the overcommit experiment's admission
waves; rejected specs stay pending and retry once sampling has shrunk
the resident estimates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs import trace as otr
from repro.obs.events import EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.host import FleetVm, Host, VmSpec

__all__ = ["wss_headroom_pages", "choose_host", "pack"]


def wss_headroom_pages(host: "Host") -> int:
    """Physical pages not claimed by resident working sets or in-flight
    reservations — the packing currency."""
    return host.capacity_pages - host.hot_pages - host.reserved_pages


def choose_host(hosts: list["Host"], spec: "VmSpec") -> "Host | None":
    """Best-fit feasible host for a never-sampled ``spec``, whose working
    set is assumed to be its whole workload (``None`` when nobody
    admits)."""
    wss = spec.workload_pages
    feasible = [h for h in hosts if h.admit(spec, wss)]
    if not feasible:
        return None
    best = min(feasible, key=lambda h: (wss_headroom_pages(h) - wss, h.host_id))
    if otr.ACTIVE is not None:
        otr.ACTIVE.emit(
            EventKind.FLEET_PLACEMENT,
            vm=spec.name,
            host_id=best.host_id,
            wss_pages=wss,
            free_pages=int(best.free_pages),
        )
    return best


def pack(
    hosts: list["Host"], specs: list["VmSpec"]
) -> tuple[list["FleetVm"], list["VmSpec"]]:
    """First-fit-decreasing admission wave: place what fits, return
    ``(placed fleet VMs, rejected specs)``.  Specs are visited in
    descending workload size (stable, so equal sizes keep submission
    order) and *placed immediately* — later candidates see the earlier
    admissions' pressure."""
    placed: list["FleetVm"] = []
    rejected: list["VmSpec"] = []
    for spec in sorted(specs, key=lambda s: s.workload_pages, reverse=True):
        host = choose_host(hosts, spec)
        if host is None:
            rejected.append(spec)
        else:
            placed.append(host.place(spec))
    return placed, rejected
