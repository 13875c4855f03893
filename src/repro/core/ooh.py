"""The OoH library: userspace lib + guest kernel module (UIO style).

The paper ships OoH as a UIO-like driver pair (§IV-B): a kernel module
(*OoH Module*) that owns the privileged plumbing, and a userspace library
(*OoH Lib*) that trackers link against.  The tracker registers the PID of
the tracked process; from then on the processor logs dirty-page addresses,
which the tracker periodically fetches from a ring buffer.

* **SPML attachment** — the module issues the ``HC_OOH_INIT_PML``
  hypercall (M9); every schedule-in/out of the tracked process costs an
  ``enable_logging``/``disable_logging`` hypercall pair (M13/M14); the
  hypervisor fills a shared ring buffer with **GPAs** at PML-full vmexits;
  collection drains the ring and *reverse-maps* GPA -> GVA (M17, the
  paper's measured SPML bottleneck, Fig. 3).

* **EPML attachment** — the module issues the single
  ``HC_OOH_INIT_PML_SHADOW`` hypercall (M10), then configures the
  guest-level PML buffer itself with vmwrite on the shadow VMCS
  (``GUEST_PML_ADDRESS`` is EPT-translated by the extended ISA);
  schedule-in/out costs one vmwrite (M8) each; the processor logs **GVAs**
  and raises a posted self-IPI on buffer-full, handled by the module,
  which copies into a per-process ring buffer; collection is a plain ring
  drain — no reverse mapping, no hypercalls.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.clock import SimClock, World
from repro.core.costs import (
    EV_DISABLE_LOGGING,
    EV_ENABLE_LOGGING,
    EV_HC_DEACT_PML,
    EV_HC_DEACT_PML_SHADOW,
    EV_HC_INIT_PML,
    EV_HC_INIT_PML_SHADOW,
    EV_IOCTL_DEACT_PML,
    EV_IOCTL_INIT_PML,
    EV_PT_WALK_USER,
    EV_RB_COPY,
    EV_REVERSE_MAP,
    CostModel,
)
from repro.core.ringbuffer import DEFAULT_RING_CAPACITY, RingBuffer
from repro.core.tracking import DirtyPageTracker, report_all_mapped
from repro.errors import TrackerDetachedError, TrackingError
from repro.guest.kernel import GuestKernel
from repro.guest.process import Process
from repro.hw import vmcs as vmcsf
from repro.hw.interrupts import VECTOR_OOH_PML_FULL
from repro.hw.pagetable import PTE_DIRTY
from repro.hw.pageset import unique_pages
from repro.hypervisor import hypercalls as hc
from repro.obs import trace as otr
from repro.obs.events import EventKind
from repro.retry import Retrier

__all__ = ["OohKind", "OohModule", "OohLib", "OohAttachment", "OohTracker"]


class OohKind(enum.Enum):
    SPML = "spml"
    EPML = "epml"


@dataclass
class CollectStats:
    """Diagnostics for one collection."""

    n_entries: int = 0
    n_vpns: int = 0
    n_unresolved: int = 0  # SPML GPAs with no current mapping
    dropped: int = 0  # ring-buffer overflow losses since attach
    n_resyncs: int = 0  # conservative resyncs performed this collect
    n_retries: int = 0  # transient-failure retries this collect
    n_recovered_ipis: int = 0  # lost-self-IPI batches drained at collect
    n_lost_vmexits: int = 0  # PML-full vmexits dropped since attach
    resynced: bool = False  # result includes the whole mapped set

    def event_fields(self) -> dict:
        """COLLECT_STATS event fields: each count an int, ``resynced`` a bool."""
        out = {name: int(value) for name, value in vars(self).items()}
        out["resynced"] = bool(self.resynced)
        return out


class OohAttachment:
    """One tracked process; created via :meth:`OohModule.attach`."""

    def __init__(
        self,
        module: "OohModule",
        process: Process,
        kind: OohKind,
        ring: RingBuffer,
        reverse_map_cache: bool = False,
    ) -> None:
        self.module = module
        self.process = process
        self.kind = kind
        self.ring = ring
        self.active = True
        #: Set by :meth:`OohModule.force_detach` (crash-only teardown):
        #: distinguishes a racing collect (lost entries, recoverable)
        #: from plain use-after-detach misuse.
        self.force_detached = False
        self.last_stats = CollectStats()
        #: When True, any detected entry loss (ring overflow, circuit
        #: drop, swallowed vmexit) triggers a conservative resync: the
        #: collect returns every mapped page, so no dirty page can be
        #: missed at the price of over-reporting.  Off by default — the
        #: completeness experiments measure raw loss behaviour.
        self.resync_on_loss = False
        #: Loss-counter baseline; updated by each collect (see
        #: :meth:`OohModule._loss_counter`).
        self._loss_mark = 0
        #: SPML only: cache resolved GPA -> GVA translations so repeated
        #: collections skip the expensive reverse mapping (the paper's
        #: Boehm integration "reuses the addresses collected during the
        #: first cycle", §VI-E footnote).
        self._rmap_cache: np.ndarray | None = (
            np.full(module.kernel.vm.mem_pages, -1, dtype=np.int64)
            if reverse_map_cache
            else None
        )

    def collect(self) -> np.ndarray:
        """Fetch dirty VPNs logged since the previous collect."""
        if not self.active:
            if self.force_detached:
                # Force-detach can race a collect (crash-only teardown);
                # the entries logged since the last collect are gone, so
                # this is a loss condition, not misuse — recovery layers
                # (the fallback chain) conservatively resync.
                raise TrackerDetachedError(
                    "collect on a force-detached OoH attachment: "
                    "logged entries lost"
                )
            raise TrackingError("fetch on a detached OoH attachment")
        module = self.module
        retries_before = module.retrier.n_retries
        stats = CollectStats()
        if self.kind is OohKind.SPML:
            vpns = module._collect_spml(self, stats)
        else:
            vpns = module._collect_epml(self, stats)
        stats.n_retries = module.retrier.n_retries - retries_before
        stats.n_vpns = int(vpns.size)
        self.last_stats = stats
        return vpns

    def detach(self) -> None:
        if self.active:
            self.module._detach(self)
            self.active = False


class OohModule:
    """The guest kernel module half of the OoH driver.

    A kernel module loads once per kernel: use :meth:`shared` (what the
    tracker techniques do) unless a test needs an isolated instance.

    The kernel owns its shared module (``kernel.ooh_module``); the module
    reaches the kernel through a weak reference, so a dropped stack is
    freed by reference counting even after SPML/EPML ran on it.
    """

    def __init__(
        self, kernel: GuestKernel, ring_capacity: int = DEFAULT_RING_CAPACITY
    ) -> None:
        self._kernel = weakref.ref(kernel)
        self.ring_capacity = ring_capacity
        self.clock: SimClock = kernel.clock
        self.costs: CostModel = kernel.costs
        self._attachment: OohAttachment | None = None
        #: EPML batches awaiting the self-IPI handler: (vcpu_id, entries).
        self._pending_guest_entries: list[tuple[int, np.ndarray]] = []
        self._idt_registered = False
        #: EPML: one guest-level buffer frame per vCPU (index = vcpu_id).
        self._guest_buf_gpfns: list[int] = []
        self.n_self_ipis_handled = 0
        #: Transient hypercall / allocation failures back off and retry
        #: (kernel context: the module issues the calls).
        self.retrier = Retrier(self.clock, World.KERNEL)

    def _hc(self, nr: int, *args: object, vcpu=None) -> object:
        """Issue a hypercall (on ``vcpu``, default BSP), retrying
        transient (EAGAIN-class) failures."""
        vc = self.vcpu if vcpu is None else vcpu
        return self.retrier.call(lambda: vc.hypercall(nr, *args))

    @classmethod
    def shared(
        cls, kernel: GuestKernel, ring_capacity: int = DEFAULT_RING_CAPACITY
    ) -> "OohModule":
        """The per-kernel module instance (insmod once)."""
        if kernel.ooh_module is None:
            kernel.ooh_module = cls(kernel, ring_capacity)
        return kernel.ooh_module

    @property
    def kernel(self) -> GuestKernel:
        return self._kernel()

    @property
    def vcpu(self):
        return self.kernel.vm.vcpu

    def _cur_vcpu(self, process: Process):
        """The vCPU ``process`` currently runs on — module code executes
        in that process's kernel context (SMP)."""
        return self.kernel.vm.vcpus[self.kernel.scheduler.vcpu_of(process)]

    # ------------------------------------------------------------------
    # attach / detach
    # ------------------------------------------------------------------
    def attach(
        self,
        process: Process,
        kind: OohKind,
        reverse_map_cache: bool = False,
        resync_on_loss: bool = False,
    ) -> OohAttachment:
        """Register a tracked PID (one at a time, like a UIO device)."""
        if self._attachment is not None and self._attachment.active:
            raise TrackingError("OoH module already tracking a process")
        if process.pid not in self.kernel.processes:
            raise TrackingError(f"unknown pid {process.pid}")
        if reverse_map_cache and kind is not OohKind.SPML:
            # EPML logs GVAs: there is no reverse mapping to cache.
            raise TrackingError("reverse_map_cache applies to SPML only")
        if kind is OohKind.SPML:
            att = self._attach_spml(process, reverse_map_cache)
        else:
            att = self._attach_epml(process)
        att.resync_on_loss = resync_on_loss
        att._loss_mark = self._loss_counter(att)
        self._attachment = att
        return att

    def _loss_counter(self, att: OohAttachment) -> int:
        """Monotonic count of entries lost on ``att``'s datapath.

        A collect compares this against the attachment's baseline: any
        increase means dirty addresses vanished before the tracker saw
        them, and (with ``resync_on_loss``) triggers a conservative
        resync.  All components are *surfaced* counters, so losses are
        never silent even when resync is off.
        """
        # SMP: loss can occur on any vCPU the tracked process visited,
        # so counters sum across vCPUs.
        vm = self.kernel.vm
        if att.kind is OohKind.SPML:
            # SPML logs through the hypervisor-level circuit, whose full
            # events are vmexits that can be swallowed.
            return att.ring.total_dropped + vm.hyp_log_losses()
        return att.ring.total_dropped + sum(
            vc.pml.guest.n_dropped + vc.pml.guest.n_injected_drops for vc in vm.vcpus
        )

    # -- SPML -------------------------------------------------------------
    def _attach_spml(
        self, process: Process, reverse_map_cache: bool
    ) -> OohAttachment:
        self.clock.charge(
            self.costs.params.hc_init_pml_us, World.TRACKER, EV_HC_INIT_PML
        )
        ring = self._hc(hc.HC_OOH_INIT_PML, self.ring_capacity)
        att = OohAttachment(
            self, process, OohKind.SPML, ring, reverse_map_cache=reverse_map_cache
        )
        self._install_sched_hooks(att)
        # The tracked process is currently on-CPU: start logging now.
        self._spml_enable(process)
        return att

    def _spml_enable(self, process: Process) -> None:
        self.clock.charge(
            self.costs.params.enable_logging_us, World.KERNEL, EV_ENABLE_LOGGING
        )
        # Issued on the vCPU the process runs on: logging follows the
        # tracked process across vCPUs (sched-out drains the old vCPU's
        # buffer, sched-in arms the new one's).
        self._hc(hc.HC_OOH_ENABLE_LOGGING, vcpu=self._cur_vcpu(process))

    def _spml_disable(self, process: Process) -> None:
        self.clock.charge(
            self.costs.params.disable_logging_call_us,
            World.KERNEL,
            EV_DISABLE_LOGGING,
        )
        self._hc(hc.HC_OOH_DISABLE_LOGGING, vcpu=self._cur_vcpu(process))

    def _collect_spml(self, att: OohAttachment, stats: CollectStats) -> np.ndarray:
        """Flush + drain + reverse-map + re-arm (tracker context)."""
        # Flush residual PML-buffer entries into the ring and pause.
        self._spml_disable(att.process)
        gpas = self._pop_ring(att, stats)
        stats.n_lost_vmexits = sum(vc.n_dropped_vmexits for vc in self.kernel.vm.vcpus)
        mem_pages = att.process.space.n_pages
        gpas = unique_pages(gpas, self.kernel.vm.mem_pages)
        # Reverse mapping parses /proc/PID/pagemap: one userspace page-
        # table walk (M16, Fig. 3's "PT walk" slice) whenever addresses
        # must actually be resolved (cache hits skip the parse) ...
        needs_walk = gpas.size > 0 and (
            att._rmap_cache is None or bool((att._rmap_cache[gpas] < 0).any())
        )
        if needs_walk:
            self.clock.charge(
                self.costs.pt_walk_user_us(mem_pages),
                World.TRACKER,
                EV_PT_WALK_USER,
            )
        # ... plus the per-address search: the SPML bottleneck (M17).
        if att._rmap_cache is not None:
            cached = att._rmap_cache[gpas]
            miss = gpas[cached < 0]
            # Cache hits cost a table lookup (~ring-copy rate); misses pay
            # the full pagemap-scan reverse mapping.
            n_hits = int(gpas.size - miss.size)
            self.clock.charge(
                self.costs.rb_copy_us(n_hits, mem_pages),
                World.TRACKER,
                "reverse_map_cached",
                n_hits,
            )
            self.clock.charge(
                self.costs.reverse_map_us(int(miss.size), mem_pages),
                World.TRACKER,
                EV_REVERSE_MAP,
                int(miss.size),
            )
            if miss.size:
                att._rmap_cache[miss] = att.process.space.pt.reverse_lookup(miss)
            vpns = att._rmap_cache[gpas]
        else:
            self.clock.charge(
                self.costs.reverse_map_us(int(gpas.size), mem_pages),
                World.TRACKER,
                EV_REVERSE_MAP,
                int(gpas.size),
            )
            vpns = att.process.space.pt.reverse_lookup(gpas)
        stats.n_unresolved = int((vpns < 0).sum())
        vpns = vpns[vpns >= 0]
        # Re-arm the EPT dirty bits so the next interval re-logs.
        if gpas.size:
            self._hc(
                hc.HC_OOH_RESET_DIRTY,
                gpas.astype(np.int64),
                vcpu=self._cur_vcpu(att.process),
            )
        vpns = np.asarray(vpns, dtype=np.int64)
        vpns = self._maybe_resync(att, stats, vpns)
        self._spml_enable(att.process)
        return vpns

    # -- EPML -------------------------------------------------------------
    def _attach_epml(self, process: Process) -> OohAttachment:
        self.clock.charge(
            self.costs.params.hc_init_pml_shadow_us,
            World.TRACKER,
            EV_HC_INIT_PML_SHADOW,
        )
        self._hc(hc.HC_OOH_INIT_PML_SHADOW)
        # Allocate one guest-level PML buffer (one guest page) *per vCPU*
        # and point each (shadow) VMCS at its own; the extended vmwrite
        # translates the GPA through the EPT.  Per-vCPU buffers mirror
        # PML's per-logical-processor architecture — two vCPUs must never
        # race on one buffer's index.
        for vc in self.kernel.vm.vcpus:
            buf_gpfn = int(
                self.retrier.call(lambda: self.kernel.vm.guest_frames.alloc(1))[0]
            )
            self._guest_buf_gpfns.append(buf_gpfn)
            # Buffer first: the vmwrite then stores the real address.
            vc.pml.guest.configure()
            vc.vmwrite(vmcsf.F_GUEST_PML_ADDRESS, buf_gpfn)
            vc.pml.guest.on_full = self._make_guest_full_handler(vc)
        if not self._idt_registered:
            # The self-IPI arrives on whichever vCPU's buffer filled, so
            # the handler registers in every vCPU's IDT.
            for idt in self.kernel.idts:
                idt.register(VECTOR_OOH_PML_FULL, self._self_ipi_handler)
            self._idt_registered = True
        ring = RingBuffer(self.ring_capacity)
        att = OohAttachment(self, process, OohKind.EPML, ring)
        self._install_sched_hooks(att)
        # Arm logging: the guest-level buffer records PTE dirty-bit 0 -> 1
        # transitions, so init clears the tracked process's dirty bits
        # (module-owned, no hypervisor involvement; part of the M3/M10
        # init cost).
        mapped = process.space.pt.mapped_vpns()
        if mapped.size:
            process.space.pt.clear_flags(mapped, PTE_DIRTY)
            # Downgraded translations must leave *every* vCPU's TLB or
            # cached dirty entries would let writes skip the 0 -> 1
            # logging circuit.
            self.kernel.tlb_shootdown(process, mapped)
        # Logging is armed on the vCPU the process currently runs on (the
        # sched hooks move it on migration).
        self._cur_vcpu(process).vmwrite(vmcsf.F_CTRL_ENABLE_GUEST_PML, 1)
        return att

    def _make_guest_full_handler(self, vc):
        """Hardware path: ``vc``'s buffer full -> posted self-IPI on ``vc``.

        The handler lives on ``vc``'s PML circuit, so it holds the vCPU's
        id and interrupt controller, never the vCPU itself (no cycle).
        """
        vcpu_id, interrupts = vc.vcpu_id, vc.interrupts

        def on_full(entries: np.ndarray) -> None:
            self._pending_guest_entries.append((vcpu_id, entries))
            interrupts.post(VECTOR_OOH_PML_FULL)

        return on_full

    def _self_ipi_handler(self, vector: int) -> None:
        """Guest-side handler: copy logged GVAs to the process ring."""
        att = self._attachment
        if att is None or not att.active:
            self._pending_guest_entries.clear()
            return
        self.n_self_ipis_handled += 1
        while self._pending_guest_entries:
            src, entries = self._pending_guest_entries.pop(0)
            self._copy_to_ring(att, entries, src)

    def _copy_to_ring(self, att: OohAttachment, entries: np.ndarray, src: int) -> None:
        """Module copy of guest-level PML entries into the process ring."""
        self.clock.charge(
            self.costs.rb_copy_us(int(entries.size), att.process.space.n_pages),
            World.KERNEL,
            EV_RB_COPY,
            int(entries.size),
        )
        att.ring.push(entries, source=src)

    def _collect_epml(self, att: OohAttachment, stats: CollectStats) -> np.ndarray:
        """Plain ring drain; re-arm by clearing PTE dirty bits."""
        # Recover notification failures before draining: deliver any
        # injection-delayed self-IPIs, then sweep batches whose IPI was
        # lost outright (they sit in the pending list; the module finds
        # them when the tracker enters the collect path).
        for vc in self.kernel.vm.vcpus:
            vc.interrupts.flush_delayed()
        if self._pending_guest_entries:
            stats.n_recovered_ipis = len(self._pending_guest_entries)
            self._self_ipi_handler(VECTOR_OOH_PML_FULL)
        # Pull residual entries still in the guest-level PML buffers —
        # every vCPU the process visited may hold some; drained in
        # ascending vCPU id (deterministic merge order).
        for vc in self.kernel.vm.vcpus:
            residual = vc.pml.guest.drain()
            if residual.size:
                self._copy_to_ring(att, residual, vc.vcpu_id)
        gvas = self._pop_ring(att, stats)
        vpns = unique_pages(gvas, att.process.space.n_pages)
        # Re-arm: the module owns guest PTE dirty bits — no hypervisor.
        # Invalidate alongside (invlpg semantics): a TLB-cached dirty
        # translation would let the next write dodge the re-armed log.
        if vpns.size:
            att.process.space.pt.clear_flags(vpns, PTE_DIRTY)
            self.kernel.tlb_shootdown(att.process, vpns)
            self.clock.charge(
                self.costs.params.pte_dirty_clear_us * vpns.size,
                World.TRACKER,
                "pte_dirty_clear",
                int(vpns.size),
            )
        return self._maybe_resync(att, stats, vpns)

    # -- shared -------------------------------------------------------------
    def _pop_ring(self, att: OohAttachment, stats: CollectStats) -> np.ndarray:
        """The tracker's copy of every ring entry out to userspace."""
        out = att.ring.pop_all()
        stats.n_entries = int(out.size)
        stats.dropped = att.ring.total_dropped
        self.clock.charge(
            self.costs.rb_copy_us(int(out.size), att.process.space.n_pages),
            World.TRACKER,
            EV_RB_COPY,
            int(out.size),
        )
        return out

    def _install_sched_hooks(self, att: OohAttachment) -> None:
        # The vCPU is resolved *at hook time*: sched-out fires before the
        # scheduler's round-robin rotation (old vCPU), sched-in after it
        # (new vCPU) — so logging disarms where the process left and arms
        # where it landed.
        def on_out(proc: Process) -> None:
            if att.active and proc.pid == att.process.pid:
                if att.kind is OohKind.SPML:
                    self._spml_disable(proc)
                else:
                    self._cur_vcpu(proc).vmwrite(vmcsf.F_CTRL_ENABLE_GUEST_PML, 0)

        def on_in(proc: Process) -> None:
            if att.active and proc.pid == att.process.pid:
                if att.kind is OohKind.SPML:
                    self._spml_enable(proc)
                else:
                    self._cur_vcpu(proc).vmwrite(vmcsf.F_CTRL_ENABLE_GUEST_PML, 1)

        self.kernel.scheduler.add_sched_out_hook(on_out)
        self.kernel.scheduler.add_sched_in_hook(on_in)
        att._hooks = (on_out, on_in)  # type: ignore[attr-defined]

    def _detach(self, att: OohAttachment) -> None:
        self.kernel.scheduler.remove_hooks(*att._hooks)  # type: ignore[attr-defined]
        # The hook closures reference the attachment: dropping them breaks
        # that cycle, so the ring (megabytes) is freed with the last
        # reference to the attachment, not when the cyclic collector runs.
        att._hooks = None  # type: ignore[attr-defined]
        if att.kind is OohKind.SPML:
            self.clock.charge(
                self.costs.params.hc_deact_pml_us, World.TRACKER, EV_HC_DEACT_PML
            )
            self._hc(hc.HC_OOH_DEACT_PML)
        else:
            # Disarm logging on the vCPU currently running the process
            # (the only one armed); the deact hypercall then tears down
            # shadowing on every vCPU hypervisor-side.
            self._cur_vcpu(att.process).vmwrite(vmcsf.F_CTRL_ENABLE_GUEST_PML, 0)
            self.clock.charge(
                self.costs.params.hc_deact_pml_shadow_us,
                World.TRACKER,
                EV_HC_DEACT_PML_SHADOW,
            )
            self._hc(hc.HC_OOH_DEACT_PML_SHADOW)
            self._free_guest_buffers()
        self._attachment = None

    def _free_guest_buffers(self) -> None:
        if self._guest_buf_gpfns:
            self.kernel.vm.guest_frames.free(self._guest_buf_gpfns)
            self._guest_buf_gpfns = []

    # -- recovery ---------------------------------------------------------
    def _maybe_resync(
        self, att: OohAttachment, stats: CollectStats, vpns: np.ndarray
    ) -> np.ndarray:
        """Fold a conservative resync into the result if entries were lost.

        Entries vanished somewhere between the logging circuit and the
        ring, so the only safe answer is *every mapped page*; the dirty
        state is re-armed so the next interval starts clean.
        """
        loss_now = self._loss_counter(att)
        lost = loss_now - att._loss_mark
        att._loss_mark = loss_now
        if lost <= 0 or not att.resync_on_loss:
            return vpns
        mapped = report_all_mapped(self.kernel, att.process)
        if mapped.size and att.kind is OohKind.EPML:
            att.process.space.pt.clear_flags(mapped, PTE_DIRTY)
            self.kernel.tlb_shootdown(att.process, mapped)
        elif mapped.size:
            gpas = att.process.space.pt.translate(mapped)
            self._hc(hc.HC_OOH_RESET_DIRTY, gpas.astype(np.int64))
        stats.n_resyncs += 1
        stats.resynced = True
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.RESYNC,
                technique=att.kind.value,
                lost=int(lost),
                n_mapped=int(mapped.size),
            )
        return np.union1d(vpns, mapped).astype(np.int64)

    def force_detach(self) -> None:
        """Crash-only teardown: release module state without hypercalls.

        Used by the fallback chain when the orderly detach path itself is
        failing (e.g. exhausted hypercall retries): drop scheduler hooks,
        clear the coordination flags object-side, and free the guest
        buffer so another technique can attach immediately.
        """
        att = self._attachment
        if att is None:
            return
        att.active = False
        att.force_detached = True
        hooks = getattr(att, "_hooks", None)
        if hooks is not None:
            self.kernel.scheduler.remove_hooks(*hooks)
            att._hooks = None  # type: ignore[attr-defined]
        self._pending_guest_entries.clear()
        vm = self.kernel.vm
        # Object-level VMCS writes (no vmwrite cost/mode checks): the
        # "crashed" module cannot run the normal teardown path.
        if att.kind is OohKind.SPML:
            vm.enabled_by_guest = False
            vm.spml_ring = None
            vm.hyp_pml_off(by_guest=True)
        else:
            for vc in vm.vcpus:
                vc.pml.guest.on_full = None
                vc.pml.guest.vmcs.write(vc.pml.guest.f_enable, 0)
            self._free_guest_buffers()
        self._attachment = None


class OohLib:
    """The userspace half: what trackers actually call.

    Mirrors the template-code API of the paper's UIO-style library: open
    the device, register the tracked PID, fetch addresses, close.
    """

    def __init__(self, module: OohModule) -> None:
        self.module = module
        self.clock = module.clock
        self.costs = module.costs

    def attach(
        self,
        process: Process,
        kind: OohKind,
        reverse_map_cache: bool = False,
        resync_on_loss: bool = False,
    ) -> OohAttachment:
        """ioctl(OOH_INIT) into the module (M3), then module setup."""
        self.clock.charge(
            self.costs.params.ioctl_init_pml_us, World.TRACKER, EV_IOCTL_INIT_PML
        )
        return self.module.attach(
            process, kind, reverse_map_cache, resync_on_loss=resync_on_loss
        )

    def fetch(self, attachment: OohAttachment) -> np.ndarray:
        """Fetch dirty VPNs collected since the last fetch."""
        return attachment.collect()

    def detach(self, attachment: OohAttachment) -> None:
        """ioctl(OOH_DEACT) (M4), then module teardown."""
        self.clock.charge(
            self.costs.params.ioctl_deact_pml_us, World.TRACKER, EV_IOCTL_DEACT_PML
        )
        attachment.detach()


class OohTracker(DirtyPageTracker):
    """A tracker over the OoH Lib: start attaches, collect fetches, stop
    detaches.  Its registered subclasses, ``SpmlTracker`` and
    ``EpmlTracker``, differ only in the technique (the attachment kind)."""

    #: SPML-only option (``SpmlTracker`` takes it as an argument).
    reverse_map_cache = False

    def __init__(
        self,
        kernel: GuestKernel,
        process: Process,
        ooh_lib: OohLib | None = None,
        resync_on_loss: bool = False,
    ) -> None:
        super().__init__(kernel, process)
        self._lib = ooh_lib if ooh_lib is not None else OohLib(OohModule.shared(kernel))
        self._att: OohAttachment | None = None
        self.resync_on_loss = resync_on_loss

    def _do_start(self) -> None:
        self._att = self._lib.attach(
            self.process,
            OohKind(self.technique.value),
            reverse_map_cache=self.reverse_map_cache,
            resync_on_loss=self.resync_on_loss,
        )

    def _do_collect(self) -> np.ndarray:
        assert self._att is not None
        out = self._lib.fetch(self._att)
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.COLLECT_STATS,
                technique=self.technique.value,
                **self._att.last_stats.event_fields(),
            )
        return out

    def _do_stop(self) -> None:
        assert self._att is not None
        self._lib.detach(self._att)
        self._att = None

    @property
    def last_stats(self) -> CollectStats:
        """Collection diagnostics (entries, drops; SPML: unresolved GPAs)."""
        assert self._att is not None
        return self._att.last_stats
