"""Shadow PML: OoH without hardware changes (paper §IV-C).

The hypervisor emulates per-process PML: hypercalls toggle logging at every
schedule-in/out, PML-full vmexits copy GPAs into a ring buffer shared with
the guest, and the OoH Lib reverse-maps GPA -> GVA in userspace — the
measured bottleneck (M17, Fig. 3).
"""

from __future__ import annotations

import numpy as np

from repro.core.ooh import OohAttachment, OohKind, OohLib, OohModule
from repro.core.tracking import DirtyPageTracker, Technique, register_technique
from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = ["SpmlTracker"]


@register_technique
class SpmlTracker(DirtyPageTracker):
    technique = Technique.SPML

    def __init__(
        self,
        kernel,
        process,
        ooh_lib: OohLib | None = None,
        reverse_map_cache: bool = False,
        resync_on_loss: bool = False,
    ) -> None:
        super().__init__(kernel, process)
        self._lib = ooh_lib if ooh_lib is not None else OohLib(OohModule.shared(kernel))
        self._att: OohAttachment | None = None
        #: Cache GPA -> GVA translations across collections (how the
        #: paper's Boehm integration amortises reverse mapping after the
        #: first GC cycle; CRIU collects once, so it never benefits).
        self.reverse_map_cache = reverse_map_cache
        self.resync_on_loss = resync_on_loss

    def _do_start(self) -> None:
        self._att = self._lib.attach(
            self.process,
            OohKind.SPML,
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
    def last_stats(self):
        """Collection diagnostics (entries, unresolved GPAs, drops)."""
        assert self._att is not None
        return self._att.last_stats
