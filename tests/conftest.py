"""Shared fixtures: a small hypervisor/VM/guest-kernel stack."""

from types import SimpleNamespace

import pytest

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.guest.kernel import GuestKernel
from repro.hypervisor.hypervisor import Hypervisor


@pytest.fixture()
def stack():
    """A 32 MiB VM inside a 128 MiB host, with a guest kernel."""
    clock = SimClock()
    costs = CostModel()
    hv = Hypervisor(clock, costs, host_mem_mb=128)
    vm = hv.create_vm("vm0", mem_mb=32)
    kernel = GuestKernel(vm, switch_interval_us=50_000.0)
    return SimpleNamespace(clock=clock, costs=costs, hv=hv, vm=vm, kernel=kernel)
