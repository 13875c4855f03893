"""Extended PML: OoH with the small hardware extension (paper §IV-D).

One hypercall at start (VMCS-shadowing setup, M10); afterwards the guest
toggles logging with vmwrite on the shadow VMCS (no vmexits), the processor
logs **GVAs** into a guest-managed buffer, buffer-full raises a posted
self-IPI, and collection is a plain ring-buffer drain — no reverse
mapping.  This is the paper's best-performing technique.
"""

from __future__ import annotations

from repro.core.ooh import OohTracker
from repro.core.tracking import Technique, register_technique

__all__ = ["EpmlTracker"]


@register_technique
class EpmlTracker(OohTracker):
    technique = Technique.EPML
