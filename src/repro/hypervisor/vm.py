"""A virtual machine (domain): guest memory, EPT, vCPUs, MMU.

The evaluation setup gives each VM one dedicated vCPU (paper §VI-A); the
simulator additionally supports SMP guests (``n_vcpus > 1``) where each
:class:`~repro.hw.cpu.Vcpu` owns its own VMCS, PML circuit, and interrupt
controller, exactly as PML is architected per logical processor.  The
single-vCPU configuration remains the default and is bit-identical to the
pre-SMP simulator (``vm.vcpu`` aliases ``vm.vcpus[0]``).  The hypervisor
populates guest physical memory eagerly at creation (host frames are
allocated and EPT-mapped up front), which matches the experiments: the VM's
RAM is fixed and the interesting dynamics are all *inside* the guest.  The
guest's frame allocator hands out GPFNs from a bump pointer: its free list
stores only the frames returned to it, not one entry per GPFN.

Ownership: a VM keeps its hypervisor alive (each vCPU's exit handlers are
the hypervisor's bound methods), and ``Hypervisor.vms`` holds VMs weakly.
Nothing the hypervisor holds points back at a VM, so dropping the last
reference to a VM (or to its guest kernel) frees the whole stack by
reference counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.calibration import PAGES_PER_MB
from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.core.ringbuffer import RingBuffer
from repro.errors import ConfigurationError
from repro.hw.cpu import Vcpu
from repro.hw.ept import Ept
from repro.hw.memory import FrameAllocator, PhysicalMemory
from repro.hw.mmu import Mmu

__all__ = ["Vm"]


@dataclass
class Vm:
    """One guest domain."""

    name: str
    mem_pages: int
    host_mem: PhysicalMemory
    clock: SimClock
    costs: CostModel
    pml_buffer_entries: int = 512
    n_vcpus: int = 1
    vcpus: list[Vcpu] = field(init=False)
    ept: Ept = field(init=False)
    mmu: Mmu = field(init=False)
    #: GPFN allocator handed to the guest kernel.
    guest_frames: FrameAllocator = field(init=False)
    #: SPML: ring buffer shared hypervisor <-> guest (GPAs).  Allocated by
    #: the HC_OOH_INIT_PML hypercall.
    spml_ring: RingBuffer | None = None
    #: Coordination flags (paper §IV-C item 3).
    enabled_by_guest: bool = False
    enabled_by_hyp: bool = False
    #: Hypervisor-side dirty log for its own PML use (live migration).
    hyp_dirty_log: list[np.ndarray] = field(default_factory=list)
    #: Sub-page permission table (OoH-SPP); created by HC_OOH_SPP_INIT.
    spp: object | None = None
    #: Most recent SPP violation record: (pid, vpn, subpage).
    last_spp_violation: tuple | None = None

    def __post_init__(self) -> None:
        if self.mem_pages <= 0:
            raise ConfigurationError(f"mem_pages must be > 0: {self.mem_pages}")
        if self.n_vcpus <= 0:
            raise ConfigurationError(f"n_vcpus must be > 0: {self.n_vcpus}")
        hpfns = self.host_mem.alloc(self.mem_pages)
        self.ept = Ept(self.mem_pages)
        self.ept.map(np.arange(self.mem_pages), hpfns)
        self.vcpus = [
            Vcpu(i, self.clock, self.costs, pml_capacity=self.pml_buffer_entries)
            for i in range(self.n_vcpus)
        ]
        for vc in self.vcpus:
            vc.ept = self.ept
            vc.domain = self.name
        self.mmu = Mmu(self.ept, self.host_mem, self.vcpus[0].pml)
        self.guest_frames = FrameAllocator(self.mem_pages)

    @property
    def vcpu(self) -> Vcpu:
        """The bootstrap processor (vCPU 0) — single-vCPU compatibility."""
        return self.vcpus[0]

    @classmethod
    def mb(cls, mem_mb: float) -> int:
        """Helper: memory size in MiB to pages."""
        return int(round(mem_mb * PAGES_PER_MB))

    # Hypervisor-level PML has two users (paper §IV-C item 3): the guest's
    # SPML (``enabled_by_guest``) and the hypervisor's dirty logging.
    def configure_hyp_pml(self) -> None:
        """Give every vCPU a hypervisor-level PML buffer if it has none."""
        for vc in self.vcpus:
            if vc.pml.hyp.buffer is None:
                vc.pml.hyp.configure()

    def hyp_pml_off(self, by_guest: bool, vcpus: list[Vcpu] | None = None) -> None:
        """One user stops logging on ``vcpus`` (default: all): PML is
        turned off there unless the other user still needs it."""
        if self.enabled_by_hyp if by_guest else self.enabled_by_guest:
            return
        for vc in self.vcpus if vcpus is None else vcpus:
            vc.vmcs.write(vc.pml.hyp.f_enable, 0)

    def hyp_log_losses(self) -> int:
        """Monotonic count of hypervisor-level dirty-log entries lost, over
        every vCPU: PML entries with no drain handler or lost to an
        injected race, plus swallowed PML-full vmexits (whose batch could
        hold any page).  A consumer that sees it move must widen its set."""
        return sum(
            vc.pml.hyp.n_dropped + vc.pml.hyp.n_injected_drops + vc.n_dropped_vmexits
            for vc in self.vcpus
        )

    def drain_hyp_dirty_log(self) -> np.ndarray:
        """Collect and clear the hypervisor-side dirty GPA log."""
        if not self.hyp_dirty_log:
            return np.empty(0, dtype=np.uint64)
        out = np.concatenate(self.hyp_dirty_log)
        self.hyp_dirty_log.clear()
        return out
