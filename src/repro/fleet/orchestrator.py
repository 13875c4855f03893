"""Multi-host migration orchestration: adaptive pre-copy, post-copy fallback.

The :class:`MigrationOrchestrator` runs both protocol halves of each
migration over a shared :class:`~repro.net.transport.Transport`:

* **placement** — destination hosts are ranked by headroom *minus* the
  resident VMs' working-set pressure, with the candidate VM's own WSS
  freshly sampled by :meth:`~repro.fleet.host.FleetVm.sample_wss`
  (accessed-bit sampling, no guest cooperation);
* **pre-copy** — a :class:`_AdaptiveMigration` subclasses the stock
  :class:`~repro.hypervisor.migration.LiveMigration` loop, scaling guest
  quanta to the round's transfer time (dirty-rate-adaptive round sizing),
  throttling the guest when the dirty set stops shrinking (QEMU
  auto-converge), and shrinking the stop-and-copy threshold to what the
  downtime SLO can afford at the link's *current* contention;
* **post-copy fallback** — when throttling maxes out and the projected
  downtime still exceeds the SLO, pre-copy is abandoned mid-flight: the
  source pauses, the destination resumes immediately, and the residual
  dirty set moves by demand pull (uffd MISSING faults) plus background
  push (:mod:`repro.fleet.postcopy`).

Concurrent migrations interleave deterministically: each pre-copy loop is
a generator (:meth:`LiveMigration.steps`), and the orchestrator
round-robins them in submission order, so contention on shared links —
and therefore every simulated timestamp — is a pure function of the
submitted moves and the workload seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.clock import World
from repro.core.costs import EV_POSTCOPY_SWITCH
from repro.errors import ConfigurationError
from repro.fleet.host import FleetVm, Host
from repro.fleet.postcopy import PostCopyDestination, PostCopyReport
from repro.hypervisor.migration import LiveMigration, MigrationReport
from repro.net.link import Link
from repro.net.transport import Transport, TransportSender
from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = ["MigrationPolicy", "FleetMigrationReport", "MigrationOrchestrator"]


#: Auto-converge: throttle added per non-shrinking round.
THROTTLE_STEP = 0.4
THROTTLE_MAX = 0.8
#: Non-shrinking rounds tolerated *at max throttle* before fallback.
PATIENCE = 1
#: Cap on guest quanta per pre-copy round (adaptive round sizing).
MAX_ROUND_QUANTA = 8


@dataclass(frozen=True)
class MigrationPolicy:
    """Knobs for one orchestrated migration (defaults: DESIGN.md §11).

    The round budget is :class:`LiveMigration`'s default and the
    post-copy push batch is :class:`PostCopyDestination`'s default.
    """

    stop_threshold_pages: int = 512
    #: Downtime budget; ``None`` disables the SLO (pre-copy runs to the
    #: stock round budget and never falls back to post-copy).
    downtime_slo_us: float | None = None
    #: Accessed-bit sampling intervals for placement WSS (0 = skip).
    wss_intervals: int = 2
    #: Destination workload rounds interleaved with pushes before drain
    #: (0 = pure push drain, used by the differential tests).
    postcopy_dest_rounds: int = 2

    def __post_init__(self) -> None:
        for name in ("stop_threshold_pages", "wss_intervals",
                     "postcopy_dest_rounds"):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be >= 0: {getattr(self, name)}"
                )
        slo = self.downtime_slo_us
        if slo is not None and not (math.isfinite(slo) and slo > 0):
            raise ConfigurationError(
                f"downtime_slo_us must be None or finite and > 0: {slo}"
            )


@dataclass
class FleetMigrationReport:
    """Outcome of one orchestrated migration."""

    vm_name: str
    src_host: str
    dst_host: str
    mode: str = "precopy"  # "precopy" | "postcopy"
    wss_pages: int = 0
    throttle_peak: float = 0.0
    downtime_us: float = 0.0
    total_us: float = 0.0
    retransmitted_pages: int = 0
    integrity_ok: bool = False
    precopy: MigrationReport = field(default_factory=MigrationReport)
    postcopy: PostCopyReport | None = None

    @property
    def rounds(self) -> int:
        return self.precopy.rounds

    @property
    def total_pages_sent(self) -> int:
        sent = self.precopy.total_pages_sent
        if self.postcopy is not None:
            sent += self.postcopy.pulled_pages + self.postcopy.pushed_pages
        return sent


class _AdaptiveController:
    """Per-migration brain: round sizing, auto-converge, SLO watchdog."""

    def __init__(
        self, fvm: FleetVm, policy: MigrationPolicy, sender: TransportSender
    ) -> None:
        self.fvm = fvm
        self.policy = policy
        self.sender = sender
        self.quanta = 1
        self.stall = 0
        self.throttle_peak = 0.0
        self._prev: int | None = None

    def workload_round(self) -> None:
        """The guest runs for the (adaptively sized) round quantum."""
        for _ in range(self.quanta):
            self.fvm.run_round()

    def _effective_us_per_page(self) -> float:
        return self.sender.us_per_page * self.sender.flow.link.share_factor

    def clamp_threshold(self, base: int) -> int:
        """Stop-and-copy only when the final send fits the downtime SLO
        at the link's *current* contention."""
        slo = self.policy.downtime_slo_us
        us_pp = self._effective_us_per_page()
        if slo is None or us_pp <= 0.0:
            return base
        _, latency = self.sender.flow.link.resolve(
            self.sender.transport.costs.params
        )
        return max(1, min(base, int((slo - latency) / us_pp)))

    def observe(
        self, mig: LiveMigration, report: MigrationReport, dirty: np.ndarray
    ) -> str | None:
        """Per-round policy decision; non-None abandons to post-copy."""
        us_pp = self._effective_us_per_page()
        if us_pp <= 0.0:
            # Infinitely fast link: nothing to adapt to — behave exactly
            # like the stock LiveMigration loop (differential identity).
            return None
        policy = self.policy
        n = int(dirty.size)
        slo = policy.downtime_slo_us
        eta_downtime = n * us_pp
        # Adaptive round sizing: the guest runs as long as this round's
        # transfer takes, so dirty harvests reflect real overlap.
        compute_us = max(self.fvm.spec.compute_us_per_round, 1e-9)
        self.quanta = min(
            MAX_ROUND_QUANTA, max(1, int(n * us_pp / compute_us))
        )
        if self._prev is None:
            # First sight of the dirty rate: adapt, don't judge.
            self._prev = n
            return None
        shrinking = n < self._prev
        self._prev = n
        if shrinking:
            self.stall = 0
            # Relax the throttle only once convergence is in sight —
            # relaxing on every shrink oscillates forever.
            in_sight = (
                eta_downtime <= slo
                if slo is not None
                else n <= mig.stop_threshold_pages * 2
            )
            if in_sight and self.fvm.throttle > 0.0:
                self.fvm.throttle = max(0.0, self.fvm.throttle - THROTTLE_STEP)
            return None
        if self.fvm.throttle < THROTTLE_MAX:
            self.fvm.throttle = min(
                THROTTLE_MAX, self.fvm.throttle + THROTTLE_STEP
            )
            self.throttle_peak = max(self.throttle_peak, self.fvm.throttle)
            return None
        self.stall += 1
        if slo is not None and eta_downtime > slo and self.stall >= PATIENCE:
            return "postcopy_slo"
        return None


class _AdaptiveMigration(LiveMigration):
    """LiveMigration whose per-round policy defers to the controller."""

    def __init__(self, controller: _AdaptiveController, **kwargs) -> None:
        self.controller: _AdaptiveController | None = None
        super().__init__(**kwargs)
        self.controller = controller

    @property
    def stop_threshold_pages(self) -> int:
        """SLO-clamped dynamically: the base budget, shrunk to what the
        downtime SLO affords at the link's current contention (so even a
        first-harvest convergence respects the SLO)."""
        if self.controller is None:
            return self._stop_threshold_base
        return self.controller.clamp_threshold(self._stop_threshold_base)

    @stop_threshold_pages.setter
    def stop_threshold_pages(self, value: int) -> None:
        self._stop_threshold_base = value

    def _precopy_policy(
        self, report: MigrationReport, dirty: np.ndarray
    ) -> str | None:
        return self.controller.observe(self, report, dirty)


class _MigrationState:
    """Bookkeeping for one in-flight migration."""

    def __init__(self, fvm: FleetVm, src: Host, dst: Host, flow) -> None:
        self.fvm = fvm
        self.src = src
        self.dst = dst
        self.flow = flow
        self.src_kernel = fvm.kernel
        self.src_proc = fvm.proc
        self.src_vm = fvm.vm
        self.controller: _AdaptiveController | None = None
        self.gen = None
        self.report: FleetMigrationReport | None = None
        self.start_us = 0.0
        #: The paused source image: ascending VPNs and their tokens.
        self.final_vpns = np.empty(0, dtype=np.int64)
        self.final_tokens = np.empty(0, dtype=np.uint64)
        self.dest: PostCopyDestination | None = None
        #: Destination-written VPN batches (post-copy guest progress).
        self.dest_written: list[np.ndarray] = []
        self._listener = None


class MigrationOrchestrator:
    """Runs migrations between hosts over one shared transport."""

    def __init__(
        self,
        hosts: list[Host],
        transport: Transport,
        link: Link,
        policy: MigrationPolicy | None = None,
    ) -> None:
        if not hosts:
            raise ConfigurationError("orchestrator needs at least one host")
        ids = [h.host_id for h in hosts]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate host_id in fleet")
        self.hosts = list(hosts)
        self.transport = transport
        self.link = link
        self.policy = policy or MigrationPolicy()
        self._mig_counter = 0

    # -- placement -----------------------------------------------------
    def select_destination(
        self, fvm: FleetVm, exclude: tuple[str, ...] = ()
    ) -> Host:
        """Most-headroom host that admits the VM: free frames minus
        resident WSS pressure, first-in-fleet-order winning ties.
        Feasibility is :meth:`Host.admit` — the plain footprint check on
        stock hosts, the WSS-with-headroom check on overcommitted ones."""
        src_id = fvm.host.host_id if fvm.host is not None else None
        feasible = [
            h
            for h in self.hosts
            if h.host_id != src_id
            and h.host_id not in exclude
            and h.admit(fvm.spec, fvm.wss.planning_pages)
        ]
        if not feasible:
            raise ConfigurationError(
                f"no host fits {fvm.name} ({fvm.spec.mem_pages} pages)"
            )
        best = max(feasible, key=lambda h: h.available_pages - h.hot_pages)
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.FLEET_PLACEMENT,
                vm=fvm.name,
                host_id=best.host_id,
                wss_pages=fvm.wss.planning_pages,
                free_pages=int(best.free_pages),
            )
        return best

    # -- migration -----------------------------------------------------
    def migrate(
        self, fvm: FleetVm, dst: Host | None = None, destroy_source: bool = True
    ) -> FleetMigrationReport:
        return self.migrate_many([(fvm, dst)], destroy_source=destroy_source)[0]

    def migrate_many(
        self,
        moves: list[tuple[FleetVm, Host | None]],
        destroy_source: bool = True,
    ) -> list[FleetMigrationReport]:
        """Run several migrations concurrently over the shared link.

        Pre-copy loops are interleaved round-robin in submission order;
        each blocked/finished loop falls out of the rotation, so link
        contention rises and falls exactly as flows open and close.
        """
        states = [self._begin(fvm, dst) for fvm, dst in moves]

        active = list(states)
        while active:
            for st in list(active):
                try:
                    st.report.precopy = next(st.gen)
                except StopIteration:
                    active.remove(st)
                    self._finish_precopy(st)

        post = [st for st in states if st.report.mode == "postcopy"]
        for _ in range(self.policy.postcopy_dest_rounds):
            for st in post:
                st.fvm.run_round()
                st.dest.push_step()
        for st in post:
            st.dest.drain()
            self.transport.close_flow(st.flow)

        return [self._complete(st, destroy_source) for st in states]

    def _begin(self, fvm: FleetVm, dst: Host | None) -> _MigrationState:
        if fvm.host is None:
            raise ConfigurationError(f"FleetVm {fvm.name} is not placed")
        src = fvm.host
        if src.economics is not None:
            # The source image must be whole before it is read: re-back
            # and reinstall any ballooned pages, else their swapped
            # tokens would never reach the destination.
            driver = src.economics.drivers.get(fvm.name)
            if driver is not None:
                driver.deflate_all()
        if dst is None:
            if self.policy.wss_intervals:
                fvm.sample_wss(self.policy.wss_intervals)
            dst = self.select_destination(fvm)
        elif not dst.admit(fvm.spec, fvm.wss.planning_pages):
            raise ConfigurationError(
                f"host {dst.host_id} cannot fit {fvm.name}"
            )
        dst.reserved_pages += fvm.spec.mem_pages
        self._mig_counter += 1
        flow_id = f"mig{self._mig_counter}:{fvm.name}:{src.host_id}->{dst.host_id}"
        flow = self.transport.open_flow(self.link, flow_id)
        st = _MigrationState(fvm, src, dst, flow)
        st.start_us = self.transport.clock.now_us
        st.report = FleetMigrationReport(
            vm_name=fvm.name,
            src_host=src.host_id,
            dst_host=dst.host_id,
            wss_pages=fvm.wss.planning_pages,
        )
        sender = TransportSender(self.transport, flow)
        st.controller = _AdaptiveController(fvm, self.policy, sender)
        mig = _AdaptiveMigration(
            st.controller,
            hypervisor=src.hypervisor,
            vm=st.src_vm,
            stop_threshold_pages=self.policy.stop_threshold_pages,
            sender=sender,
        )
        st.gen = mig.steps(st.controller.workload_round)
        return st

    def _dest_shell(self, st: _MigrationState):
        """Create the destination VM, converting the reservation into the
        real frame allocation.  An overcommitted destination may have
        admitted on WSS alone; balloon residents down for the eager
        footprint first."""
        if st.dst.economics is not None:
            st.dst.economics.ensure_free(st.fvm.spec.mem_pages)
        shell = st.dst.create_shell(st.fvm.spec)
        st.dst.reserved_pages -= st.fvm.spec.mem_pages
        return shell

    def _source_contents(self, st: _MigrationState) -> tuple[np.ndarray, np.ndarray]:
        """(vpns, tokens) of the paused source's present workload pages,
        VPNs ascending."""
        vpns = st.src_proc.space.mapped_vpns()
        vpns = vpns[st.src_proc.space.pt.present_mask(vpns)]
        tokens = st.src_vm.mmu.read_page_contents(st.src_proc.space.pt, vpns)
        return vpns, tokens

    def _finish_precopy(self, st: _MigrationState) -> None:
        """Source half is done (converged, budget-forced, or abandoned):
        bring up the destination in the right mode."""
        report = st.report
        report.throttle_peak = st.controller.throttle_peak
        precopy = report.precopy
        if precopy.aborted_reason == "postcopy_slo":
            self._switch_to_postcopy(st)
            return
        # Pre-copy completed (stop-and-copy already charged): materialise
        # the destination from the paused source's state.
        st.src_kernel.stop_process(st.src_proc)
        vpns, tokens = st.final_vpns, st.final_tokens = self._source_contents(st)
        _vm, kernel, proc = self._dest_shell(st)
        kernel.access(proc, vpns, True)
        kernel.vm.mmu.write_page_contents(proc.space.pt, vpns, tokens)
        st.fvm.bind(st.dst, kernel.vm, kernel, proc)
        report.downtime_us = precopy.downtime_us
        self.transport.close_flow(st.flow)

    def _switch_to_postcopy(self, st: _MigrationState) -> None:
        """Pause the source, resume on the destination, leave the residual
        dirty set on the wire."""
        clock = self.transport.clock
        params = self.transport.costs.params
        clock.charge(params.postcopy_state_us, World.HYPERVISOR, EV_POSTCOPY_SWITCH)
        st.src_kernel.stop_process(st.src_proc)
        vpns, tokens = st.final_vpns, st.final_tokens = self._source_contents(st)
        remaining = np.asarray(
            st.report.precopy.remaining_pages, dtype=np.int64
        )
        gpfns = st.src_proc.space.pt.translate(vpns)
        missing = vpns[np.isin(gpfns.astype(np.int64), remaining)]
        _vm, kernel, proc = self._dest_shell(st)
        st.dest = PostCopyDestination(
            kernel,
            proc,
            self.transport,
            st.flow,
            missing,
            vpns,
            tokens,
        )

        def listener(process, result) -> None:
            if process is proc and result.newly_pte_dirty.size:
                st.dest_written.append(result.newly_pte_dirty)

        st._listener = listener
        kernel.add_access_listener(listener)
        st.fvm.bind(st.dst, kernel.vm, kernel, proc)
        st.fvm.throttle = 0.0  # post-copy guests run unthrottled
        st.report.mode = "postcopy"
        st.report.downtime_us = params.postcopy_state_us
        if otr.ACTIVE is not None:
            otr.ACTIVE.emit(
                EventKind.MIGRATION_MODE,
                vm=st.fvm.name,
                mode="postcopy",
                missing_pages=int(missing.size),
                flow=st.flow.flow_id,
            )

    def _verify_integrity(self, st: _MigrationState) -> bool:
        """Destination memory equals the paused source, except pages the
        destination guest wrote after switchover (its own progress)."""
        vpns, want = st.final_vpns, st.final_tokens
        if vpns.size == 0:
            return True
        fvm = st.fvm
        got = fvm.kernel.vm.mmu.read_page_contents(fvm.proc.space.pt, vpns)
        if st.dest_written:
            keep = ~np.isin(vpns, np.concatenate(st.dest_written))
            got, want = got[keep], want[keep]
        return bool(np.array_equal(got, want))

    def _complete(
        self, st: _MigrationState, destroy_source: bool
    ) -> FleetMigrationReport:
        report = st.report
        if st._listener is not None:
            st.fvm.kernel.remove_access_listener(st._listener)
        report.retransmitted_pages = st.flow.retransmitted_pages
        if st.dest is not None:
            report.postcopy = st.dest.report
        report.integrity_ok = self._verify_integrity(st)
        st.src.vms.pop(st.fvm.name, None)
        if st.src.economics is not None:
            st.src.economics.detach(st.fvm.name)
        st.dst.adopt(st.fvm)
        if st.dst.economics is not None and st.dst.economics.can_manage(st.fvm):
            st.dst.economics.attach(st.fvm)
        if destroy_source:
            st.src.hypervisor.destroy_vm(st.fvm.spec.name)
        st.fvm.throttle = 0.0
        report.total_us = self.transport.clock.now_us - st.start_us
        if otr.ACTIVE is not None:
            otr.ACTIVE.metrics.inc(f"fleet.host.{st.src.host_id}.migrations_out")
            otr.ACTIVE.metrics.inc(f"fleet.host.{st.dst.host_id}.migrations_in")
        return report
