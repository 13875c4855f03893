"""The original five-pass MMU walk, kept as the test oracle.

:class:`RefMmu` resolves every batch with the multipass walk that the
production walk (:class:`repro.hw.mmu.Mmu`) replaced: no page-set
normalisation, no TLB fast path, no walk cache.  It inherits
:meth:`Mmu.access`'s argument checks and WRITE trace emission and
overrides only the walk step, so the differential and golden-trace
suites can swap it in for ``vm.mmu`` and demand bit-identical state and
traces.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProtectionFault
from repro.hw.ept import Ept
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import Mmu, MmuResult
from repro.hw.pagetable import PTE_ACCESSED, PTE_DIRTY, PTE_UFD_WP, PTE_WRITABLE
from repro.hw.pml import PmlCircuit

__all__ = ["RefMmu"]


class RefMmu(Mmu):
    """:class:`Mmu` with the multipass reference walk and no walk cache."""

    def __init__(self, ept: Ept, host_mem: PhysicalMemory, pml: PmlCircuit) -> None:
        super().__init__(ept, host_mem, pml, walk_cache=False)

    def _resolve(self, pt, tlb, v, w, wbool, handlers, res, pml) -> MmuResult:
        if w is None:
            w = np.full(v.shape, wbool)
        # -- 1. missing pages -------------------------------------------
        present = pt.present_mask(v)
        if not present.all():
            missing, inv_m = np.unique(v[~present], return_inverse=True)
            missing_w = np.zeros(missing.shape, dtype=bool)
            np.logical_or.at(missing_w, inv_m, w[~present])
            handled_by_ufd = handlers.handle_ufd_miss_fault(missing, missing_w)
            res.n_ufd_faults += int(len(handled_by_ufd))
            still = ~np.isin(missing, handled_by_ufd)
            if still.any():
                handlers.handle_minor_fault(missing[still], missing_w[still])
                res.n_minor_faults += int(still.sum())
            present = pt.present_mask(v)
            if not present.all():
                raise ProtectionFault("fault handler left pages unmapped")

        # -- 2. write-protection faults ----------------------------------
        if w.any():
            wv = v[w]
            writable = pt.flag_mask(wv, PTE_WRITABLE)
            if not writable.all():
                faulting = np.unique(wv[~writable])
                ufd_mask = pt.flag_mask(faulting, PTE_UFD_WP)
                res.n_ufd_faults += int(ufd_mask.sum())
                res.n_wp_faults += int((~ufd_mask).sum())
                handlers.handle_wp_fault(faulting, ufd_mask)
                if not pt.flag_mask(wv, PTE_WRITABLE).all():
                    raise ProtectionFault("WP fault handler left pages read-only")

        # -- 3. PTE accessed/dirty bits ----------------------------------
        pt.set_flags(v, PTE_ACCESSED)
        if w.any():
            wv_unique = np.unique(v[w])
            was_clean = ~pt.flag_mask(wv_unique, PTE_DIRTY)
            res.newly_pte_dirty = wv_unique[was_clean]
            pt.set_flags(wv_unique, PTE_DIRTY)
            # EPML guest-level logging: GVAs whose PTE dirty bit was set.
            pml.log_gvas(res.newly_pte_dirty)

        # -- 4. EPT accessed/dirty bits ----------------------------------
        uniq_v, inv = np.unique(v, return_inverse=True)
        uniq_w = np.zeros(uniq_v.shape, dtype=bool)
        np.logical_or.at(uniq_w, inv, w)
        gpfns = pt.translate(uniq_v)
        res.newly_ept_dirty = self.ept.touch(gpfns, uniq_w)
        # Hypervisor-level PML logging: GPAs whose EPT dirty bit was set.
        pml.log_gpas(res.newly_ept_dirty)

        # -- 5. content mutation + TLB -----------------------------------
        if uniq_w.any():
            hpfns = self.ept.translate(gpfns[uniq_w])
            self.host_mem.write(hpfns)
        tlb.fill(uniq_v)
        return res
