"""Per-layer host-time tracing from outside the program.

:func:`install` replaces the public functions named in ``SPANS`` with
wrappers that record one span per call: name, parent span, operation,
start and end.  Spans are kept in memory; :meth:`Tracer.write_jsonl`
writes them out when the traced child ends, and :meth:`Tracer.metrics`
reduces them to per-layer counts and self times.  A span's self time is
its duration minus the time its child spans cover, so the self times of
all layers plus ``other.self_s`` add up to the traced wall time.

Nothing in ``repro`` is edited: the wrappers are installed on the classes
and modules at run time, in the traced child only.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

TECHNIQUES = ("proc", "ufd", "spml", "epml", "oracle", "fallback")

#: Span name -> percentiles of its call durations, reported in ms.
PERCENTILES = {
    "trackers.boehm.collect": (50,),
    "serverless.instance.run": (50, 99),
}


# -- hooks: before(args) -> value; after(counts, names, span id, args, result,
# value); an after hook may rename its span --
def _mmu_counters(args: tuple) -> tuple[int, int, int]:
    mmu = args[0]
    return mmu.n_fast_batches, mmu.n_replay_batches, mmu.n_segment_replays


def _mmu_access(counts, names, i, args, out, pre) -> None:
    # Classify the call by the path the MMU's own counters say it took.
    fast, replay, _ = _mmu_counters(args)
    if replay != pre[1]:
        names[i] = "hw.mmu.replay"
    elif fast != pre[0]:
        names[i] = "hw.mmu.fast"
    counts["hw.mmu.accesses"] += out.n_accesses


def _mmu_segment(counts, names, i, args, out, pre) -> None:
    replayed = _mmu_counters(args)[2] - pre[2]
    counts["hw.mmu.segment_replays"] += replayed
    if replayed:
        # A replayed segment makes no Mmu.access calls; count its pages here.
        counts["hw.mmu.accesses"] += sum(r.n_accesses for r in out)


def _collected(counts, names, i, args, out, pre) -> None:
    counts[names[i] + ".pages"] += int(out.size)


def _dumped(counts, names, i, args, out, pre) -> None:
    counts["trackers.criu.pages_dumped"] += out.pages_dumped


#: (module, attribute, span name, before, after) for every wrapped public
#: function.  Functions sharing a span name add into one layer metric; a
#: ``{}`` in the name is filled with the tracker's technique.
SPANS = [
    ("repro.experiments.harness", "build_stack", "experiments.build_stack",
     None, None),
    ("repro.hw.mmu", "Mmu.access", "hw.mmu.walk", _mmu_counters, _mmu_access),
    ("repro.hw.mmu", "Mmu.access_segment", "hw.mmu.access_segment",
     _mmu_counters, _mmu_segment),
    ("repro.hw.ept", "Ept.touch", "hw.ept.touch", None, None),
    ("repro.hw.pml", "PmlCircuit.log_gpas", "hw.pml.log", None, None),
    ("repro.hw.pml", "PmlCircuit.log_gvas", "hw.pml.log", None, None),
    ("repro.hw.memory", "FrameAllocator.alloc", "hw.memory.alloc", None, None),
    ("repro.hw.memory", "PhysicalMemory.alloc", "hw.memory.alloc", None, None),
    ("repro.guest.kernel", "GuestKernel.access", "guest.kernel.access",
     None, None),
    ("repro.guest.kernel", "GuestKernel.access_plan", "guest.kernel.access_plan",
     None, None),
    ("repro.guest.kernel", "GuestKernel.compute", "guest.kernel.compute",
     None, None),
    ("repro.guest.procfs", "ProcFs.clear_refs", "guest.procfs", None, None),
    ("repro.guest.procfs", "ProcFs.pagemap_soft_dirty", "guest.procfs",
     None, None),
    ("repro.guest.procfs", "ProcFs.pagemap_pfns", "guest.procfs", None, None),
    ("repro.guest.uffd", "UserFaultFd.write_protect", "guest.uffd", None, None),
    ("repro.guest.uffd", "UserFaultFd.deliver_write_faults", "guest.uffd",
     None, None),
    ("repro.guest.uffd", "UserFaultFd.deliver_miss_faults", "guest.uffd",
     None, None),
    ("repro.core.tracking", "DirtyPageTracker.start", "core.techniques.{}.start",
     None, None),
    ("repro.core.tracking", "DirtyPageTracker.collect",
     "core.techniques.{}.collect", None, _collected),
    ("repro.core.tracking", "DirtyPageTracker.stop", "core.techniques.{}.stop",
     None, None),
    ("repro.core.ooh", "OohModule.attach", "core.ooh.attach", None, None),
    ("repro.core.ooh", "OohAttachment.collect", "core.ooh.collect", None, None),
    ("repro.hypervisor.hypercalls", "HypercallTable.dispatch",
     "hypervisor.hypercalls.dispatch", None, None),
    ("repro.trackers.boehm.gc", "BoehmGc.collect", "trackers.boehm.collect",
     None, None),
    ("repro.trackers.boehm.incremental", "full_mark", "trackers.boehm.mark",
     None, None),
    ("repro.trackers.boehm.incremental", "minor_mark", "trackers.boehm.mark",
     None, None),
    ("repro.trackers.boehm.heap", "GcHeap.alloc", "trackers.boehm.heap.alloc",
     None, None),
    ("repro.trackers.boehm.heap", "GcHeap.free_objects",
     "trackers.boehm.heap.free_objects", None, None),
    ("repro.trackers.boehm.heap", "GcHeap.csr", "trackers.boehm.heap.csr",
     None, None),
    ("repro.trackers.boehm.heap", "GcHeap.objects_on_pages",
     "trackers.boehm.heap.objects_on_pages", None, None),
    ("repro.trackers.criu.checkpoint", "CriuSession.dump", "trackers.criu.dump",
     None, _dumped),
    ("repro.workloads.base", "Workload.run", "workloads.run", None, None),
    ("repro.serverless.instance", "FunctionInstance.run",
     "serverless.instance.run", None, None),
    ("repro.serverless.tracker", "UnifiedDirtyTracker.map_regions",
     "serverless.map_regions", None, None),
    ("repro.serverless.tracker", "UnifiedDirtyTracker.extract_diff",
     "serverless.extract_diff", None, None),
    ("repro.serverless.snapshot", "Snapshot.merge", "serverless.snapshot.merge",
     None, None),
    ("repro.serverless.snapshot", "Snapshot.freeze", "serverless.snapshot.merge",
     None, None),
    ("repro.fleet.orchestrator", "MigrationOrchestrator.migrate_many",
     "fleet.migrate_many", None, None),
    ("repro.net.transport", "Transport.send", "net.transport.send", None, None),
    ("repro.fleet.economics.reclaim", "HostEconomics.ensure_free",
     "fleet.economics", None, None),
    ("repro.fleet.economics.reclaim", "HostEconomics.rebalance",
     "fleet.economics", None, None),
]


def span_names() -> list[str]:
    """Every span name a traced run can record, in table order."""
    names: list[str] = []
    for _, _, name, _, _ in SPANS:
        names += [name.format(t) for t in TECHNIQUES] if "{}" in name else [name]
        if name == "hw.mmu.walk":
            names += ["hw.mmu.fast", "hw.mmu.replay"]
    return list(dict.fromkeys(names))


class Tracer:
    """In-memory span recorder shared by every installed wrapper.

    Spans are stored column-wise (one list per field, indexed by span id)
    so that recording adds no object the garbage collector must scan.
    """

    def __init__(self) -> None:
        self.name: list[str] = []
        self.parent: list[int] = []  # -1 for a top-level span
        self.op: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        #: Time covered by each span's direct children.
        self.child_s: list[float] = []
        #: Work counts measured at the same boundaries as the spans.
        self.counts: Counter[str] = Counter()
        #: Label of the operation running now; every span records it.
        self.current_op = ""
        self._open: list[int] = []

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn``, recording a span per call (see ``SPANS``)."""
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, child_s = self.start, self.end, self.child_s
        open_, counts = self._open, self.counts
        per_technique = "{}" in name

        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            i = len(names)
            names.append(name.format(args[0].technique.value) if per_technique
                         else name)
            parents.append(open_[-1] if open_ else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            child_s.append(0.0)
            open_.append(i)
            t0 = perf_counter()
            starts.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = t1 = perf_counter()
                open_.pop()
                if open_:
                    child_s[open_[-1]] += t1 - t0
            if after is not None:
                after(counts, names, i, args, out, pre)
            return out

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self time, percentiles, counts and ratios."""
        calls: Counter[str] = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        durations: defaultdict[str, list[float]] = defaultdict(list)
        for name, t0, t1, child in zip(self.name, self.start, self.end,
                                       self.child_s):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child
            if name in PERCENTILES:
                durations[name].append(t1 - t0)
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name, pcts in PERCENTILES.items():
            d = sorted(durations[name])
            for p in pcts:
                # Nearest-rank percentile; 0 when the layer never ran.
                out[f"{name}.p{p}_ms"] = d[-(-p * len(d) // 100) - 1] * 1e3 if d else 0.0
        n_access = sum(calls[f"hw.mmu.{k}"] for k in ("walk", "fast", "replay"))
        out["hw.mmu.access.calls"] = n_access
        out["hw.mmu.accesses"] = self.counts["hw.mmu.accesses"]
        out["hw.mmu.replay_ratio"] = _ratio(calls["hw.mmu.replay"], n_access)
        out["hw.mmu.segment_replay_ratio"] = _ratio(
            self.counts["hw.mmu.segment_replays"], calls["hw.mmu.access_segment"]
        )
        for t in TECHNIQUES:
            key = f"core.techniques.{t}.collect.pages"
            out[key] = self.counts[key]
        out["trackers.criu.pages_dumped"] = self.counts["trackers.criu.pages_dumped"]
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for i, (name, parent, op, t0, t1) in enumerate(zip(
                    self.name, self.parent, self.op, self.start, self.end)):
                f.write(json.dumps({"op": op, "id": i, "parent": parent,
                                    "name": name, "start": t0, "end": t1}))
                f.write("\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def install(tracer: Tracer) -> None:
    """Wrap every function in ``SPANS`` so that it records into ``tracer``.

    A module-level function is also replaced in every loaded ``repro``
    module that imported it by name, so callers holding the original
    reference are traced too.  Call this after the workload has imported
    what it runs.
    """
    for module, attr, name, before, after in SPANS:
        mod = importlib.import_module(module)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        original = getattr(owner, fn_name)
        wrapped = tracer.wrap(original, name, before, after)
        setattr(owner, fn_name, wrapped)
        if owner_name:
            continue
        for other in list(sys.modules.values()):
            if (getattr(other, "__name__", "").startswith("repro")
                    and getattr(other, fn_name, None) is original):
                setattr(other, fn_name, wrapped)
