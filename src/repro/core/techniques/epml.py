"""Extended PML: OoH with the small hardware extension (paper §IV-D).

One hypercall at start (VMCS-shadowing setup, M10); afterwards the guest
toggles logging with vmwrite on the shadow VMCS (no vmexits), the processor
logs **GVAs** into a guest-managed buffer, buffer-full raises a posted
self-IPI, and collection is a plain ring-buffer drain — no reverse
mapping.  This is the paper's best-performing technique.
"""

from __future__ import annotations

import numpy as np

from repro.core.ooh import OohAttachment, OohKind, OohLib, OohModule
from repro.core.tracking import DirtyPageTracker, Technique, register_technique
from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = ["EpmlTracker"]


@register_technique
class EpmlTracker(DirtyPageTracker):
    technique = Technique.EPML

    def __init__(
        self,
        kernel,
        process,
        ooh_lib: OohLib | None = None,
        resync_on_loss: bool = False,
    ) -> None:
        super().__init__(kernel, process)
        self._lib = ooh_lib if ooh_lib is not None else OohLib(OohModule.shared(kernel))
        self._att: OohAttachment | None = None
        self.resync_on_loss = resync_on_loss

    def _do_start(self) -> None:
        self._att = self._lib.attach(
            self.process, OohKind.EPML, resync_on_loss=self.resync_on_loss
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
        """Collection diagnostics (entries, drops)."""
        assert self._att is not None
        return self._att.last_stats
