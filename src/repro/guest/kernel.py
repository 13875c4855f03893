"""The guest kernel: processes, memory management, fault plumbing.

One :class:`GuestKernel` runs inside each :class:`~repro.hypervisor.vm.Vm`.
It exposes the two entry points workloads drive:

* :meth:`access` — run a page-access batch through the MMU with this
  process's page table and fault handlers;
* :meth:`compute` — account CPU time the workload spends *not* touching
  new pages (its own arithmetic), which also advances the scheduler and
  thereby generates the context switches that SPML/EPML hook.

It also owns the /proc interface, the per-vCPU IDTs, and userfaultfd
creation, and offers a zero-cost access-listener hook used by the oracle
technique.

SMP: every access batch executes on the vCPU the scheduler currently
assigns the process to — faults, PML logging, and TLB fills all happen on
that vCPU.  Permission changes (clear_refs, ufd write-protect, PTE
dirty-bit clears) must invalidate *every* vCPU's cached translations, so
the kernel implements the classic TLB-shootdown protocol: invalidate
locally, then IPI each remote vCPU that may hold a stale entry
(:meth:`tlb_shootdown` / :meth:`tlb_flush_all`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.calibration import PAGES_PER_MB
from repro.core.clock import SimClock, World
from repro.core.costs import EV_COMPUTE, CostModel
from repro.errors import GuestError
from repro.guest.faults import ProcessFaultHandler
from repro.guest.idt import Idt
from repro.guest.plan import AccessPlan, PlanSegment
from repro.guest.process import AddressSpace, Process, ProcessState
from repro.guest.procfs import ProcFs
from repro.guest.scheduler import DEFAULT_SWITCH_INTERVAL_US, Scheduler
from repro.guest.uffd import UserFaultFd
from repro.hw.interrupts import VECTOR_TLB_SHOOTDOWN
from repro.hw.mmu import MmuResult
from repro.hypervisor.vm import Vm
from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = ["GuestKernel"]

AccessListener = Callable[[Process, MmuResult], None]


class GuestKernel:
    """Linux-like kernel for one VM."""

    def __init__(
        self,
        vm: Vm,
        switch_interval_us: float = DEFAULT_SWITCH_INTERVAL_US,
    ) -> None:
        self.vm = vm
        self.clock: SimClock = vm.clock
        self.costs: CostModel = vm.costs
        self.procfs = ProcFs(self.clock, self.costs, kernel=self)
        self.idts = [Idt(vc) for vc in vm.vcpus]
        self.scheduler = Scheduler(
            self.clock, self.costs, switch_interval_us, n_vcpus=vm.n_vcpus
        )
        self.processes: dict[int, Process] = {}
        self._fault_handlers: dict[int, ProcessFaultHandler] = {}
        self._access_listeners: list[AccessListener] = []
        #: pid -> vpns of the access batch currently inside the MMU.
        #: Consumers that unmap pages from *inside* a fault resolution
        #: (the balloon's refault-triggered reclaim) must not touch the
        #: batch the fused access will still complete.
        self._active_access: dict[int, np.ndarray] = {}
        self._next_pid = 1
        #: Per-vCPU queues of (tlb, vpns-or-None) shootdown work; drained
        #: by the VECTOR_TLB_SHOOTDOWN handler on the target vCPU (None
        #: means full flush).  Delivery is synchronous, so a queue never
        #: outlives the tlb_shootdown/tlb_flush_all call that filled it.
        self._pending_shootdowns: list[list] = [[] for _ in vm.vcpus]
        for k, idt in enumerate(self.idts):
            idt.register(VECTOR_TLB_SHOOTDOWN, self._make_shootdown_handler(k))

    @property
    def idt(self) -> Idt:
        """vCPU 0's IDT — single-vCPU compatibility alias."""
        return self.idts[0]

    def _make_shootdown_handler(self, vcpu_id: int) -> Callable[[int], None]:
        def handle(_vector: int) -> None:
            pending = self._pending_shootdowns[vcpu_id]
            while pending:
                tlb, vpns = pending.pop(0)
                if vpns is None:
                    tlb.flush()
                else:
                    tlb.invalidate(vpns)

        return handle

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------
    def spawn(
        self,
        name: str,
        mem_mb: float | None = None,
        n_pages: int | None = None,
    ) -> Process:
        """Create a process with an address space of the given size."""
        if (mem_mb is None) == (n_pages is None):
            raise GuestError("specify exactly one of mem_mb / n_pages")
        pages = n_pages if n_pages is not None else int(round(mem_mb * PAGES_PER_MB))
        pid = self._next_pid
        self._next_pid += 1
        proc = Process(
            pid=pid, name=name, space=AddressSpace(pages, n_vcpus=self.vm.n_vcpus)
        )
        self.processes[pid] = proc
        self._fault_handlers[pid] = ProcessFaultHandler(
            self.clock, self.costs, proc, self.vm.guest_frames
        )
        return proc

    def exit_process(self, process: Process) -> None:
        process.state = ProcessState.DEAD
        self.tlb_flush_all(process)
        freed = process.space.pt.unmap(process.space.mapped_vpns())
        if freed.size:
            self.vm.guest_frames.free(freed)
        self.processes.pop(process.pid, None)
        self._fault_handlers.pop(process.pid, None)
        self.scheduler.reset(process)

    def process_by_pid(self, pid: int) -> Process:
        try:
            return self.processes[pid]
        except KeyError:
            raise GuestError(f"no such pid: {pid}") from None

    def fault_handler(self, process: Process) -> ProcessFaultHandler:
        return self._fault_handlers[process.pid]

    # ------------------------------------------------------------------
    # execution entry points
    # ------------------------------------------------------------------
    def access(
        self,
        process: Process,
        vpns: np.ndarray | list[int],
        write: np.ndarray | bool,
    ) -> MmuResult:
        """Run a page-access batch for ``process``.

        The batch executes on the vCPU the scheduler currently assigns the
        process to: faults, PML logging, and the TLB refill all land on
        that vCPU's structures.
        """
        if process.state is ProcessState.DEAD:
            raise GuestError(f"access by dead process {process.pid}")
        if process.state is ProcessState.STOPPED:
            raise GuestError(f"access by stopped process {process.pid}")
        handler = self._fault_handlers[process.pid]
        k = self.scheduler.vcpu_of(process)
        self._active_access[process.pid] = np.asarray(vpns, dtype=np.int64)
        try:
            result = self.vm.mmu.access(
                process.space.pt,
                process.space.tlbs[k],
                vpns,
                write,
                handler,
                pml=self.vm.vcpus[k].pml,
            )
        finally:
            self._active_access.pop(process.pid, None)
        for listener in self._access_listeners:
            listener(process, result)
        return result

    def active_access_vpns(self, process: Process) -> np.ndarray:
        """VPNs of ``process``'s access batch currently inside the MMU
        (empty outside an access) — pages a mid-fault reclaimer must
        leave mapped."""
        got = self._active_access.get(process.pid)
        if got is None:
            return np.empty(0, dtype=np.int64)
        return got

    def access_plan(
        self,
        process: Process,
        plan: AccessPlan | list,
    ) -> list[MmuResult]:
        """Execute a compiled :class:`~repro.guest.plan.AccessPlan`.

        Semantically identical to issuing the plan's ops one by one
        through :meth:`access` / :meth:`compute` — same op order, same
        scheduler driving, same per-batch listener notifications — but
        with the per-call overhead (state checks, vCPU lookup, handler
        resolution) paid once per plan instead of once per batch.

        ``plan`` may also be a plain list of ``(vpns, write)`` batches,
        which is wrapped as a transient single-segment plan.

        The executing vCPU is re-resolved after any compute charge that
        fired context switches, since quantum expiry rotates the process
        to the next vCPU on SMP configurations.
        """
        if isinstance(plan, list):
            plan = AccessPlan.from_batches(plan)
        if process.state is ProcessState.DEAD:
            raise GuestError(f"access by dead process {process.pid}")
        if process.state is ProcessState.STOPPED:
            raise GuestError(f"access by stopped process {process.pid}")
        handler = self._fault_handlers[process.pid]
        mmu = self.vm.mmu
        scheduler = self.scheduler
        listeners = self._access_listeners
        clock = self.clock
        pt = process.space.pt
        tlbs = process.space.tlbs
        vcpus = self.vm.vcpus
        k = scheduler.vcpu_of(process)
        results: list[MmuResult] = []
        for item in plan.items:
            if isinstance(item, PlanSegment):
                rs = mmu.access_segment(
                    pt, tlbs[k], item, handler, pml=vcpus[k].pml
                )
                if listeners:
                    for r in rs:
                        for listener in listeners:
                            listener(process, r)
                results.extend(rs)
            else:
                clock.charge(item, World.TRACKED, EV_COMPUTE)
                if scheduler.notify_runtime(process, item):
                    k = scheduler.vcpu_of(process)
        return results

    def access_subpage(
        self, process: Process, vpn: int, subpage: int, write: bool = True
    ) -> bool:
        """Access one 128-byte sub-page; returns False on an SPP block.

        The page-level walk (faults, dirty bits, PML) happens first; if
        the VM has sub-page permissions enabled and the write hits a
        write-protected sub-page, the CPU raises an SPP-induced vmexit
        and the access does not complete (OoH-SPP, paper §III-D).
        """
        from repro.hw.cpu import ExitReason

        spp = self.vm.spp
        if write and spp is not None:
            gpfn_arr = process.space.pt.gpfn[vpn:vpn + 1]
            gpfn = int(gpfn_arr[0]) if gpfn_arr.size and gpfn_arr[0] >= 0 else None
            if gpfn is None:
                # Demand-page first so the sub-page check sees a mapping.
                self.access(process, [vpn], False)
                gpfn = int(process.space.pt.gpfn[vpn])
            if not spp.check_write(gpfn, subpage):
                cur = self.vm.vcpus[self.scheduler.vcpu_of(process)]
                cur.vmexit(
                    ExitReason.SPP_VIOLATION, (process.pid, vpn, subpage)
                )
                return False
        self.access(process, [vpn], write)
        return True

    def compute(
        self, process: Process, us: float, world: World = World.TRACKED
    ) -> None:
        """Account workload CPU time and drive the scheduler."""
        if us < 0:
            raise GuestError(f"negative compute time: {us}")
        if process.state is ProcessState.DEAD:
            raise GuestError(f"compute by dead process {process.pid}")
        self.clock.charge(us, world, EV_COMPUTE)
        self.scheduler.notify_runtime(process, us)

    # ------------------------------------------------------------------
    # TLB shootdowns (SMP)
    # ------------------------------------------------------------------
    def tlb_shootdown(self, process: Process, vpns: np.ndarray | list[int]) -> int:
        """Invalidate ``vpns`` on every vCPU caching them; returns the
        number of remote vCPUs IPI'd.

        Classic protocol: invalidate the initiating vCPU's TLB directly,
        then send a shootdown IPI to each *remote* vCPU that may hold one
        of the translations (filtered on its TLB state, as Linux filters
        on ``mm_cpumask``).  Shootdown IPIs are reliable — the initiator
        spins until acked — so they use the non-droppable delivery path.
        """
        vpns = np.asarray(vpns, dtype=np.int64).ravel()
        initiator = self.scheduler.vcpu_of(process)
        tlbs = process.space.tlbs
        tlbs[initiator].invalidate(vpns)
        targets = [
            k
            for k in range(len(tlbs))
            if k != initiator and vpns.size and tlbs[k].cached_any(vpns)
        ]
        for k in targets:
            self._pending_shootdowns[k].append((tlbs[k], vpns))
            self.vm.vcpus[k].interrupts.ipi(VECTOR_TLB_SHOOTDOWN)
        if otr.ACTIVE is not None and targets:
            otr.ACTIVE.emit(
                EventKind.TLB_SHOOTDOWN,
                initiator=initiator,
                targets=targets,
                n_vpns=int(vpns.size),
            )
        return len(targets)

    def tlb_flush_all(self, process: Process) -> int:
        """Flush the process's translations from every vCPU's TLB;
        returns the number of remote vCPUs IPI'd."""
        initiator = self.scheduler.vcpu_of(process)
        tlbs = process.space.tlbs
        tlbs[initiator].flush()
        targets = [
            k
            for k in range(len(tlbs))
            if k != initiator and tlbs[k].n_cached > 0
        ]
        for k in targets:
            self._pending_shootdowns[k].append((tlbs[k], None))
            self.vm.vcpus[k].interrupts.ipi(VECTOR_TLB_SHOOTDOWN)
        if otr.ACTIVE is not None and targets:
            otr.ACTIVE.emit(
                EventKind.TLB_SHOOTDOWN,
                initiator=initiator,
                targets=targets,
                n_vpns=-1,
            )
        return len(targets)

    # ------------------------------------------------------------------
    # services
    # ------------------------------------------------------------------
    def create_uffd(self, process: Process) -> UserFaultFd:
        return UserFaultFd(self.clock, self.costs, process, kernel=self)

    def add_access_listener(self, listener: AccessListener) -> None:
        self._access_listeners.append(listener)

    def remove_access_listener(self, listener: AccessListener) -> None:
        if listener in self._access_listeners:
            self._access_listeners.remove(listener)

    # ------------------------------------------------------------------
    # process control (used by CRIU)
    # ------------------------------------------------------------------
    def stop_process(self, process: Process) -> None:
        if process.state is ProcessState.DEAD:
            raise GuestError("cannot stop a dead process")
        process.state = ProcessState.STOPPED

    def resume_process(self, process: Process) -> None:
        if process.state is not ProcessState.STOPPED:
            raise GuestError("resume of a process that is not stopped")
        process.state = ProcessState.RUNNABLE
