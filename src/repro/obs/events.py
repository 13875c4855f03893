"""Typed trace events and the metrics each one feeds.

Every instrumented seam emits one of these kinds.  The taxonomy mirrors
the simulator's architectural boundaries (DESIGN.md §8): hardware
transitions (vmexit, pml_full, self_ipi, tlb_flush), software datapaths
(hypercall, ring_drop, retry), and tracker-level lifecycle (collect,
resync, fallback_transition, migration_round).

Events are deterministic by construction: fields carry only simulated
state (page numbers, counters, reasons), never host time or object
identities, so a run's event stream is a stable, diffable artifact —
the property the golden-trace tests rely on.

:data:`EVENT_METRICS` holds one row per kind: the counters and
histograms the event feeds, as name templates over its fields.
:meth:`~repro.obs.trace.TraceSession.emit` applies the row, so a seam
names no metric of its own and the trace and the counters cannot
disagree.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

__all__ = ["Count", "EVENT_METRICS", "EventKind", "Observe", "TraceEvent"]


class EventKind(enum.Enum):
    """What happened at an instrumented seam (source in brackets)."""

    #: A vmexit was delivered to a root-mode handler [hw/cpu].
    VMEXIT = "vmexit"
    #: A PML buffer filled and was force-drained [hw/pml].
    PML_FULL = "pml_full"
    #: PML entries were discarded (no handler, or injected race) [hw/pml].
    PML_DROP = "pml_drop"
    #: A posted self-IPI was delivered / lost / delayed [hw/interrupts].
    SELF_IPI = "self_ipi"
    #: A hypercall reached the dispatch table [hypervisor/hypercalls].
    HYPERCALL = "hypercall"
    #: A transient failure triggered a backoff retry [retry].
    RETRY = "retry"
    #: The fallback chain degraded one step [core/techniques/fallback].
    FALLBACK_TRANSITION = "fallback_transition"
    #: A TLB was flushed whole [hw/tlb].
    TLB_FLUSH = "tlb_flush"
    #: A cross-vCPU TLB shootdown IPI was sent (SMP) [guest/kernel].
    TLB_SHOOTDOWN = "tlb_shootdown"
    #: A shared ring buffer lost its oldest entries [core/ringbuffer].
    RING_DROP = "ring_drop"
    #: One pre-copy round (or stop-and-copy) sent pages [hypervisor/migration].
    MIGRATION_ROUND = "migration_round"
    #: A batch of pages was charged to the transfer path [hypervisor/migration].
    MIGRATION_PAGE_SEND = "migration_page_send"
    #: A migration switched mode (pre-copy -> post-copy) [fleet/orchestrator].
    MIGRATION_MODE = "migration_mode"
    #: A flow moved pages across a simulated link [net/transport].
    NET_SEND = "net_send"
    #: A network fault site fired (drop / spike / partition) [net/transport].
    NET_FAULT = "net_fault"
    #: Post-copy destination pulled missing pages on fault [fleet/postcopy].
    POSTCOPY_PULL = "postcopy_pull"
    #: The orchestrator selected a destination host [fleet/orchestrator].
    FLEET_PLACEMENT = "fleet_placement"
    #: A page-access batch wrote these VPNs [hw/mmu].
    WRITE = "write"
    #: A tracker reported dirty VPNs [core/tracking].
    COLLECT = "collect"
    #: Per-collect OoH diagnostics [core/techniques/{spml,epml}].
    COLLECT_STATS = "collect_stats"
    #: Detected loss forced a conservative resync [core/ooh].
    RESYNC = "resync"
    #: The balloon reclaimed cold frames from a guest [fleet/economics].
    BALLOON_INFLATE = "balloon_inflate"
    #: The balloon re-backed guest frames on refault [fleet/economics].
    BALLOON_DEFLATE = "balloon_deflate"
    #: A guest touched a reclaimed page; contents refaulted in [fleet/economics].
    BALLOON_REFAULT = "balloon_refault"
    #: A host's reclaim controller ran to restore free-frame slack [fleet/economics].
    RECLAIM_PRESSURE = "reclaim_pressure"
    #: A snapshot's contents were CoW-mapped over a region [serverless].
    SNAPSHOT_MAP = "snapshot_map"
    #: An instance extracted its byte-exact dirty diff [serverless].
    SNAPSHOT_DIFF = "snapshot_diff"
    #: A batch of diffs was merged into a snapshot [serverless].
    SNAPSHOT_MERGE = "snapshot_merge"


@dataclass(frozen=True)
class TraceEvent:
    """One emitted event: a global sequence number, a kind, and fields.

    Ordering is by ``seq`` alone — the trace has no timestamps, because
    time attribution already lives in :class:`~repro.core.clock.SimClock`
    and duplicating it would couple trace identity to float formatting.
    """

    seq: int
    kind: EventKind
    fields: dict

    def to_json(self) -> str:
        """Canonical single-line JSON: sorted keys, no whitespace."""
        obj = {"seq": self.seq, "kind": self.kind.value, **self.fields}
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(line: str) -> "TraceEvent":
        obj = json.loads(line)
        seq = obj.pop("seq")
        kind = EventKind(obj.pop("kind"))
        return TraceEvent(seq=int(seq), kind=kind, fields=obj)


class Count(NamedTuple):
    """Counter ``name.format_map(fields)`` += the ``by`` field, ``by(fields)``
    when ``by`` is a function, or 1 when None; only if ``when(fields)`` holds."""

    name: str
    by: str | Callable[[dict], int] | None = None
    when: Callable[[dict], bool] | None = None

    def feed(self, metrics, fields: dict) -> None:
        if self.when is None or self.when(fields):
            by = self.by
            n = 1 if by is None else by(fields) if callable(by) else fields[by]
            metrics.inc(self.name.format_map(fields), n)


class Observe(NamedTuple):
    """Histogram ``name.format_map(fields)`` records the ``value`` field."""

    name: str
    value: str

    def feed(self, metrics, fields: dict) -> None:
        metrics.observe(self.name.format_map(fields), fields[self.value])


#: Kind -> the metrics one event of that kind feeds.  Every kind has a
#: row; an empty row means the event is trace-only.
EVENT_METRICS: dict[EventKind, tuple[Count | Observe, ...]] = {
    EventKind.VMEXIT: (
        Count("vmexit.{reason}"), Count("vcpu.{vcpu_id}.vmexit.{reason}"),
    ),
    EventKind.PML_FULL: (
        Count("pml.{level}.full_events"),
        Count("pml.vcpu.{vcpu_id}.{level}.full_events"),
        Observe("pml.occupancy_at_flush", "occupancy"),
    ),
    EventKind.PML_DROP: (
        Count("pml.{level}.injected_drops", "n", lambda f: f["cause"] == "injected"),
        Count("pml.{level}.dropped", "n", lambda f: f["cause"] == "no_handler"),
    ),
    EventKind.SELF_IPI: (Count("self_ipi.{outcome}"),),
    EventKind.HYPERCALL: (Count("hypercall.{nr}.{outcome}"),),
    EventKind.RETRY: (Count("retry.attempts"),),
    EventKind.FALLBACK_TRANSITION: (Count("fallback.transitions"),),
    EventKind.TLB_FLUSH: (Count("tlb.flushes"),),
    EventKind.TLB_SHOOTDOWN: (
        Count("tlb.shootdowns"),
        Count("tlb.shootdown_ipis", lambda f: len(f["targets"])),
    ),
    EventKind.RING_DROP: (Count("ring.dropped.{cause}", "n"),),
    EventKind.MIGRATION_ROUND: (Count("migration.rounds"),),
    EventKind.MIGRATION_PAGE_SEND: (Count("migration.pages_sent", "n_pages"),),
    EventKind.MIGRATION_MODE: (Count("fleet.postcopy_fallbacks"),),
    EventKind.NET_SEND: (
        Count("net.sends"),
        Count("net.flow.{flow}.pages", "n_pages"),
        Count("net.link.{link}.pages", "n_pages"),
        Count("net.retransmitted_pages", "retransmitted",
              lambda f: f["retransmitted"] != 0),
    ),
    EventKind.NET_FAULT: (),
    EventKind.POSTCOPY_PULL: (Count("postcopy.pulled_pages", "n_pages"),),
    EventKind.FLEET_PLACEMENT: (Count("fleet.host.{host_id}.placements"),),
    EventKind.WRITE: (Count("mmu.write_batches"), Count("mmu.writes", "n_writes")),
    EventKind.COLLECT: (
        Count("collect.{technique}"), Observe("collect.n_vpns", "n_vpns"),
    ),
    EventKind.COLLECT_STATS: (
        Count("collect_stats.{technique}.entries", "n_entries"),
        Observe("collect_stats.{technique}.n_entries_dist", "n_entries"),
    ),
    EventKind.RESYNC: (Count("resync.conservative"),),
    EventKind.BALLOON_INFLATE: (Count("economics.reclaimed_pages", "n_pages"),),
    EventKind.BALLOON_DEFLATE: (),
    EventKind.BALLOON_REFAULT: (Count("economics.refault_pages", "n_pages"),),
    EventKind.RECLAIM_PRESSURE: (Count("economics.pressure_reclaims"),),
    EventKind.SNAPSHOT_MAP: (Count("snapshot.maps"),),
    EventKind.SNAPSHOT_DIFF: (
        Count("snapshot.diffs"), Observe("snapshot.diff_pages", "n_changed"),
    ),
    EventKind.SNAPSHOT_MERGE: (
        Count("snapshot.merges"), Count("snapshot.pages_merged", "n_pages_applied"),
    ),
}
