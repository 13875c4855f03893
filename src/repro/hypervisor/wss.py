"""Working-set-size sampling from EPT accessed bits.

The paper's related work (§VII) cites the authors' earlier result that
PML, extended to also log *read* pages, lets the hypervisor estimate a
VM's working set efficiently.  We implement the classic sampling form on
the same substrate: clear the EPT accessed bits, let the VM run an
interval, and count the pages whose accessed bit came back — no guest
cooperation, no page faults.  The fleet layer turns these samples into
estimates (:meth:`repro.fleet.host.FleetVm.sample_wss`).
"""

from __future__ import annotations

from typing import Callable

from repro.hw.ept import EPT_ACCESSED
from repro.hypervisor.vm import Vm

__all__ = ["sample_accessed_pages"]


def sample_accessed_pages(vm: Vm, run_interval: Callable[[], None]) -> int:
    """Clear the accessed bits, run one interval, count the pages whose
    bit came back.

    A cleared EPT A bit makes the MMU's TLB fast path decline the page's
    next batch, so the walk re-sets it and the sample counts every page
    the interval touched, TLB-cached or not.
    """
    vm.ept.clear_accessed()
    run_interval()
    return int(((vm.ept.flags & EPT_ACCESSED) != 0).sum())
