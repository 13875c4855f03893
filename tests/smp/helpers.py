"""State-capture helpers shared by the SMP and fleet differential tests.

Two witnesses of "nothing changed that shouldn't have":

* :func:`full_state` — the entire simulator state as one comparable
  tuple (page tables, EPT, host memory contents, clock ledger, per-vCPU
  PML/vmexit counters, TLB stats).  Bit-identity of two runs through
  this tuple is the SMP differential's equality notion.
* :func:`process_memory_state` — just a process's (mapped vpns, content
  tokens), the memory-equality witness the migration differentials use
  to prove a destination ended up with exactly the source's bytes.
"""

import numpy as np


def full_state(vm, clock, proc, collected=()) -> tuple:
    """Full simulator state for bit-identity comparisons."""
    snap = clock.snapshot()
    return (
        list(collected),
        proc.space.pt.flags.tolist(),
        proc.space.pt.gpfn.tolist(),
        vm.ept.flags.tolist(),
        vm.mmu.host_mem._content.tolist(),
        clock.now_us,
        dict(snap.event_count),
        [vc.pml.hyp.n_full_events for vc in vm.vcpus],
        [vc.pml.guest.n_full_events for vc in vm.vcpus],
        [vc.n_vmexits for vc in vm.vcpus],
        [t.n_flushes for t in proc.space.tlbs],
        [t.n_invalidations for t in proc.space.tlbs],
    )


def process_memory_state(kernel, proc) -> tuple[np.ndarray, np.ndarray]:
    """(mapped vpns, content tokens) of a process's present pages."""
    vpns = proc.space.mapped_vpns()
    vpns = vpns[proc.space.pt.present_mask(vpns)]
    tokens = kernel.vm.mmu.read_page_contents(proc.space.pt, vpns)
    return vpns, tokens
