"""Out of Hypervisor (OoH) — reproduction of Bitchebe & Tchana, SC 2022.

Efficient dirty-page tracking in userspace using (simulated) hardware
virtualization features: Intel PML exposed to guest processes via two OoH
designs, Shadow PML (SPML) and Extended PML (EPML), compared against the
Linux ``/proc`` soft-dirty and ``userfaultfd`` baselines, integrated into
a CRIU-style checkpointer and a Boehm-style garbage collector.

Typical use::

    from repro import build_stack, make_tracker, Technique

    stack = build_stack(vm_mb=256)
    proc = stack.kernel.spawn("app", mem_mb=32)
    proc.space.add_vma(1024)
    with make_tracker(Technique.EPML, stack.kernel, proc) as tracker:
        stack.kernel.access(proc, [1, 2, 3], True)
        dirty = tracker.collect()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured results of every table and figure.
"""

from repro.core.clock import SimClock, World
from repro.core.costs import CostModel, CostParams
from repro.core.formulas import FormulaEstimate, accuracy_pct, estimate
from repro.core.ooh import OohAttachment, OohKind, OohLib, OohModule
from repro.core.ringbuffer import RingBuffer
from repro.core.tracking import DirtyPageTracker, Technique, make_tracker
from repro.experiments.harness import (
    build_stack,
    run_boehm,
    run_criu,
    run_microbench,
)
from repro.guest.kernel import GuestKernel
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.migration import LiveMigration, MigrationReport
from repro.trackers.boehm import BoehmGc, GcHeap, GcParams
from repro.trackers.criu import Criu, CriuSession, restore
from repro.workloads import (
    ArrayParser,
    FlatContext,
    GcContext,
    MemoryContext,
    Workload,
    make_workload,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "SimClock",
    "World",
    "CostModel",
    "CostParams",
    "RingBuffer",
    "Technique",
    "DirtyPageTracker",
    "make_tracker",
    "OohKind",
    "OohLib",
    "OohModule",
    "OohAttachment",
    "FormulaEstimate",
    "estimate",
    "accuracy_pct",
    # stack
    "Hypervisor",
    "GuestKernel",
    "LiveMigration",
    "MigrationReport",
    "build_stack",
    # trackers
    "Criu",
    "CriuSession",
    "restore",
    "BoehmGc",
    "GcHeap",
    "GcParams",
    # workloads
    "Workload",
    "MemoryContext",
    "FlatContext",
    "GcContext",
    "ArrayParser",
    "make_workload",
    # experiment runners
    "run_microbench",
    "run_criu",
    "run_boehm",
]
