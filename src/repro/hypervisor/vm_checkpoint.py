"""Whole-VM checkpointing: the paper's §III-C *alternative* to OoH.

"A way to use PML for a process is to dedicate a VM to the latter, thus
exploiting PML as is only by the hypervisor ... to checkpoint the process
the user would checkpoint the corresponding VM."

This module implements that alternative faithfully — iterative pre-copy
dump of the *entire VM* driven by hypervisor-level PML — so the
benchmarks can quantify the paper's two objections:

1. it checkpoints every colocated process (and the guest kernel), not
   just the target, inflating image size and dump time; and
2. it is useless for in-guest runtime consumers like the GC, which needs
   per-process dirty data *inside* the guest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.clock import World
from repro.core.costs import EV_DISK_WRITE
from repro.errors import CheckpointError
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.vm import Vm

__all__ = ["VmImage", "VmCheckpointReport", "checkpoint_vm"]


@dataclass
class VmImage:
    """Captured guest-physical memory: (GPFN, content-token) rounds."""

    vm_name: str
    mem_pages: int
    rounds: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    @property
    def total_pages_dumped(self) -> int:
        return sum(int(g.size) for g, _ in self.rounds)

    def flatten(self) -> dict[int, int]:
        latest: dict[int, int] = {}
        for gpfns, tokens in self.rounds:
            for g, t in zip(gpfns, tokens):
                latest[int(g)] = int(t)
        return latest


@dataclass
class VmCheckpointReport:
    rounds: int = 0
    pages_per_round: list[int] = field(default_factory=list)
    total_us: float = 0.0
    freeze_us: float = 0.0


def checkpoint_vm(
    hypervisor: Hypervisor,
    vm: Vm,
    run_round: Callable[[], None] | None = None,
    predump_rounds: int = 0,
) -> tuple[VmImage, VmCheckpointReport]:
    """Checkpoint the whole VM using hypervisor-level PML pre-copy."""
    if predump_rounds < 0:
        raise CheckpointError("predump_rounds must be >= 0")
    if predump_rounds > 0 and run_round is None:
        raise CheckpointError("pre-dump requires run_round")
    clock = hypervisor.clock
    per_page = hypervisor.costs.params.disk_write_us_per_page
    image = VmImage(vm_name=vm.name, mem_pages=vm.mem_pages)
    report = VmCheckpointReport()
    t_start = clock.now_us

    def dump(gpfns: np.ndarray) -> None:
        if gpfns.size == 0:
            report.pages_per_round.append(0)
            return
        hpfns = vm.ept.translate(gpfns)
        tokens = hypervisor.host_mem.read(hpfns)
        clock.charge(
            float(gpfns.size) * per_page, World.HYPERVISOR, EV_DISK_WRITE,
            int(gpfns.size),
        )
        image.rounds.append((gpfns.astype(np.int64), tokens))
        report.pages_per_round.append(int(gpfns.size))

    hypervisor.enable_vm_dirty_logging(vm)
    try:
        vm.ept.clear_dirty()
        # Round 0: every allocated guest frame — the whole VM, which is
        # exactly the §III-C objection.
        allocated = np.nonzero(vm.guest_frames._allocated)[0].astype(np.int64)
        dump(allocated)
        report.rounds = 1
        for _ in range(predump_rounds):
            run_round()
            dirty = hypervisor.harvest_vm_dirty(vm).astype(np.int64)
            dump(dirty)
            report.rounds += 1
        # Final freeze: the whole VM pauses while the residue is copied.
        t0 = clock.now_us
        dirty = hypervisor.harvest_vm_dirty(vm).astype(np.int64)
        dump(dirty)
        report.rounds += 1
        report.freeze_us = clock.now_us - t0
    finally:
        hypervisor.disable_vm_dirty_logging(vm)
    report.total_us = clock.now_us - t_start
    return image, report
