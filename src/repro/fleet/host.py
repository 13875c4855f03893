"""Hosts and fleet VMs: capacity-accounted nodes running guest workloads.

A :class:`Host` wraps one :class:`~repro.hypervisor.hypervisor.Hypervisor`
sharing the fleet's single :class:`~repro.core.clock.SimClock` and
:class:`~repro.core.costs.CostModel` — simulated time is global, so
events on different hosts serialize deterministically.  Capacity is frame
accounting: a VM fits iff the host's physical frame pool can hold its
whole footprint (VMs map their EPT eagerly at creation).

A :class:`FleetVm` is the unit the orchestrator moves: a workload spec,
a seeded RNG that *persists across re-binding* (the workload keeps its
random stream when the VM lands on a new host — same writes, new home),
and the current (host, vm, kernel, process) binding.  ``throttle`` is the
auto-converge knob: a throttled guest performs proportionally fewer
writes per round, exactly QEMU's cpu-throttle trick.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.errors import ConfigurationError
from repro.fleet.economics.reclaim import ADMISSION_HEADROOM, HostEconomics
from repro.fleet.economics.wss_history import WssHistory
from repro.guest.kernel import GuestKernel
from repro.guest.process import Process
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.vm import Vm
from repro.hypervisor.wss import sample_accessed_pages

__all__ = ["VmSpec", "FleetVm", "Host"]


@dataclass(frozen=True)
class VmSpec:
    """Immutable description of one fleet VM and its write workload."""

    name: str
    mem_mb: float
    #: Pages the workload touches (the VMA size), <= the VM's footprint.
    workload_pages: int
    #: Page accesses issued per unthrottled round.
    writes_per_round: int
    #: Fraction of accesses that are writes (the rest are reads).
    write_fraction: float = 1.0
    #: Guest compute charged per round (the workload's own work).
    compute_us_per_round: float = 200.0
    #: Access locality: the first ``hot_fraction`` of the workload is the
    #: hot region; each access lands there with probability
    #: ``hot_weight``, else anywhere in the workload.  1.0 (the default)
    #: is the original uniform stream, bit-identically (no extra RNG
    #: draws) — the skew exists so WSS estimators have a cold tail to
    #: find, which is what makes overcommit pay.
    hot_fraction: float = 1.0
    hot_weight: float = 0.9
    seed: int = 7

    def __post_init__(self) -> None:
        if self.workload_pages < 1:
            raise ConfigurationError(
                f"workload_pages must be >= 1: {self.workload_pages}"
            )
        if self.workload_pages > Vm.mb(self.mem_mb):
            raise ConfigurationError(
                f"workload_pages {self.workload_pages} exceeds the "
                f"{self.mem_mb} MiB footprint ({Vm.mb(self.mem_mb)} pages)"
            )
        if self.writes_per_round < 1:
            raise ConfigurationError(
                f"writes_per_round must be >= 1: {self.writes_per_round}"
            )
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError(
                f"write_fraction must be in [0, 1]: {self.write_fraction}"
            )
        if self.compute_us_per_round < 0:
            raise ConfigurationError(
                f"compute_us_per_round must be >= 0: {self.compute_us_per_round}"
            )
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ConfigurationError(
                f"hot_fraction must be in (0, 1]: {self.hot_fraction}"
            )
        if not 0.0 <= self.hot_weight <= 1.0:
            raise ConfigurationError(
                f"hot_weight must be in [0, 1]: {self.hot_weight}"
            )

    @property
    def mem_pages(self) -> int:
        return Vm.mb(self.mem_mb)


class FleetVm:
    """One migratable VM: spec + persistent workload RNG + binding."""

    def __init__(self, spec: VmSpec) -> None:
        self.spec = spec
        # crc32 of the name decorrelates same-seed VMs; the stream is
        # owned here (not per-host) so migration never rewinds it.
        self._rng = np.random.default_rng(
            (spec.seed & 0xFFFFFFFF) ^ zlib.crc32(spec.name.encode())
        )
        #: Auto-converge throttle in [0, 1): fraction of the round's
        #: accesses suppressed.
        self.throttle = 0.0
        #: Working-set sample history; starts pessimistic at the whole
        #: workload.  ``wss.planning_pages`` is the placement estimate.
        self.wss = WssHistory(initial_pages=spec.workload_pages)
        self.n_rounds = 0
        self.host: Host | None = None
        self.vm: Vm | None = None
        self.kernel: GuestKernel | None = None
        self.proc: Process | None = None
        self._round_hooks: list[Callable[[], None]] = []

    @property
    def name(self) -> str:
        return self.spec.name

    def bind(
        self, host: "Host", vm: Vm, kernel: GuestKernel, proc: Process
    ) -> None:
        self.host = host
        self.vm = vm
        self.kernel = kernel
        self.proc = proc

    def add_round_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` after every workload round (e.g. tracker collect)."""
        self._round_hooks.append(hook)

    def run_round(self) -> None:
        """One workload quantum: randomized accesses + guest compute."""
        if self.kernel is None or self.proc is None:
            raise ConfigurationError(f"FleetVm {self.name} is not bound")
        spec = self.spec
        n = max(1, int(round(spec.writes_per_round * (1.0 - self.throttle))))
        vpns = self._rng.integers(0, spec.workload_pages, n)
        if spec.hot_fraction < 1.0:
            # Fold hot draws into the leading hot region; the uniform
            # draw above is reused so hot_fraction == 1.0 specs keep the
            # exact pre-skew random stream.
            hot_span = max(1, int(spec.workload_pages * spec.hot_fraction))
            in_hot = self._rng.random(n) < spec.hot_weight
            vpns = np.where(in_hot, vpns % hot_span, vpns)
        if spec.write_fraction >= 1.0:
            writes: bool | np.ndarray = True
        else:
            writes = self._rng.random(n) < spec.write_fraction
        self.kernel.access(self.proc, vpns, writes)
        if spec.compute_us_per_round > 0:
            self.kernel.compute(self.proc, spec.compute_us_per_round)
        self.n_rounds += 1
        for hook in self._round_hooks:
            hook()

    def sample_wss(self, intervals: int) -> int:
        """Accessed-bit sampling: ``intervals`` times clear the EPT
        accessed bits, run one round and record the count; then publish
        the planning estimate (ceil of those samples' mean)."""
        for _ in range(intervals):
            self.wss.record(sample_accessed_pages(self.vm, self.run_round))
        return self.wss.refresh_planning(intervals)


@dataclass
class Host:
    """One physical node: a hypervisor plus resident fleet VMs."""

    host_id: str
    clock: SimClock
    costs: CostModel
    mem_mb: float
    #: Nominal footprint the host may promise, as a multiple of physical
    #: capacity.  1.0 (the default) disables the economics layer entirely:
    #: admission is the plain physical-frames check and no balloon is ever
    #: installed, so the host is bit-identical to the pre-economics fleet.
    overcommit_ratio: float = 1.0
    hypervisor: Hypervisor = field(init=False)
    vms: dict[str, FleetVm] = field(init=False, default_factory=dict)
    #: Frames promised to in-flight incoming migrations (the destination
    #: VM is not created until pre-copy finishes, but concurrent placement
    #: decisions must see the claim).
    reserved_pages: int = field(init=False, default=0)
    #: Reclaim controller + balloon registry; present iff overcommitting.
    economics: HostEconomics | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.overcommit_ratio < 1.0:
            raise ConfigurationError(
                f"overcommit_ratio must be >= 1.0: {self.overcommit_ratio}"
            )
        self.hypervisor = Hypervisor(
            self.clock, self.costs, host_mem_mb=self.mem_mb
        )
        if self.overcommit_ratio > 1.0:
            self.economics = HostEconomics(self)

    # -- capacity accounting ------------------------------------------
    @property
    def capacity_pages(self) -> int:
        return self.hypervisor.host_mem.n_frames

    @property
    def free_pages(self) -> int:
        return self.hypervisor.host_mem.allocator.n_free

    @property
    def committed_pages(self) -> int:
        return self.capacity_pages - self.free_pages

    @property
    def hot_pages(self) -> int:
        """Sum of resident VMs' WSS estimates — the placement pressure."""
        return sum(fvm.wss.planning_pages for fvm in self.vms.values())

    @property
    def available_pages(self) -> int:
        """Free frames minus in-flight reservations."""
        return self.free_pages - self.reserved_pages

    def fits(self, mem_pages: int) -> bool:
        return self.available_pages >= mem_pages

    # -- overcommit accounting ----------------------------------------
    @property
    def nominal_pages(self) -> int:
        """Sum of resident VMs' nominal footprints (what a no-overcommit
        host would have to hold physically)."""
        return sum(fvm.spec.mem_pages for fvm in self.vms.values())

    @property
    def commit_limit_pages(self) -> int:
        """Nominal footprint ceiling: capacity times the overcommit ratio."""
        return int(self.capacity_pages * self.overcommit_ratio)

    @property
    def pressure(self) -> float:
        """Demand-over-capacity signal: resident working sets plus
        in-flight reservations against physical frames.  Above ~1.0 the
        hot sets alone exceed the machine — the thrash regime."""
        return (self.hot_pages + self.reserved_pages) / float(
            self.capacity_pages
        )

    def admit(self, spec: VmSpec, wss_pages: int | None = None) -> bool:
        """Would this host accept ``spec``?

        Without overcommit this is exactly :meth:`fits` on the footprint.
        Overcommitting hosts admit against *estimated demand*: the
        nominal footprint must stay under the commit limit, and the
        resident working sets plus the candidate's (with
        :data:`~repro.fleet.economics.reclaim.ADMISSION_HEADROOM`) must fit
        in physical frames — the balloon can always
        squeeze cold pages out, but hot demand has nowhere to go.
        """
        if self.economics is None:
            return self.fits(spec.mem_pages)
        wss = spec.workload_pages if wss_pages is None else int(wss_pages)
        need = int(np.ceil(wss * (1.0 + ADMISSION_HEADROOM)))
        if self.nominal_pages + spec.mem_pages > self.commit_limit_pages:
            return False
        return (
            self.hot_pages + self.reserved_pages + need
            <= self.capacity_pages
        )

    # -- VM lifecycle -------------------------------------------------
    def create_shell(self, spec: VmSpec) -> tuple[Vm, GuestKernel, Process]:
        """VM + kernel + an *unpopulated* process with the workload VMA
        laid out — the destination half of a migration."""
        vm = self.hypervisor.create_vm(spec.name, mem_mb=spec.mem_mb)
        kernel = GuestKernel(vm)
        proc = kernel.spawn(spec.name, n_pages=spec.workload_pages)
        proc.space.add_vma(spec.workload_pages)
        return vm, kernel, proc

    def place(self, spec: VmSpec) -> FleetVm:
        """Boot a fresh fleet VM here, workload memory fully faulted in.

        On an overcommitting host the eager footprint may exceed the free
        frames; resident guests are ballooned down first, and the new
        guest gets its own balloon so it can be a reclaim victim later.
        """
        if self.economics is not None:
            self.economics.prepare_admission(spec.mem_pages)
        fvm = FleetVm(spec)
        vm, kernel, proc = self.create_shell(spec)
        kernel.access(
            proc, np.arange(spec.workload_pages, dtype=np.int64), True
        )
        fvm.bind(self, vm, kernel, proc)
        self.vms[spec.name] = fvm
        if self.economics is not None:
            self.economics.attach(fvm)
        return fvm

    def adopt(self, fvm: FleetVm) -> None:
        """Register an incoming (already bound) migrated VM."""
        self.vms[fvm.name] = fvm

    def evict(self, fvm: FleetVm) -> None:
        """Tear down a migrated-away VM's source half."""
        self.vms.pop(fvm.name, None)
        if self.economics is not None:
            self.economics.detach(fvm.name)
        self.hypervisor.destroy_vm(fvm.spec.name)
