"""Shadow PML: OoH without hardware changes (paper §IV-C).

The hypervisor emulates per-process PML: hypercalls toggle logging at every
schedule-in/out, PML-full vmexits copy GPAs into a ring buffer shared with
the guest, and the OoH Lib reverse-maps GPA -> GVA in userspace — the
measured bottleneck (M17, Fig. 3).
"""

from __future__ import annotations

from repro.core.ooh import OohLib, OohTracker
from repro.core.tracking import Technique, register_technique

__all__ = ["SpmlTracker"]


@register_technique
class SpmlTracker(OohTracker):
    technique = Technique.SPML

    def __init__(
        self,
        kernel,
        process,
        ooh_lib: OohLib | None = None,
        reverse_map_cache: bool = False,
        resync_on_loss: bool = False,
    ) -> None:
        super().__init__(kernel, process, ooh_lib, resync_on_loss)
        #: Cache GPA -> GVA translations across collections (how the
        #: paper's Boehm integration amortises reverse mapping after the
        #: first GC cycle; CRIU collects once, so it never benefits).
        self.reverse_map_cache = reverse_map_cache
