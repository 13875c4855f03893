"""Deterministic fault injection and the dirty-page completeness auditor.

The subsystem has three parts:

* :mod:`repro.faults.plan` — typed fault sites and seed-driven plans;
* :mod:`repro.faults.injector` — the registry the hooked seams consult
  (``injector.ACTIVE is None`` when disabled, so the hooks are free);
* :mod:`repro.faults.auditor` — cross-checks a tracker run against the
  oracle and raises if any dirty page was lost *silently* (neither
  recovered by resync/retry/fallback nor surfaced in a counter).

The auditor is imported lazily (module ``__getattr__``): the hooked
hardware modules import this package at interpreter start, and the
auditor pulls in the tracking stack, which would cycle back into them.
"""

from repro.faults.injector import FaultInjector, activate
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultSite",
    "FaultSpec",
    "activate",
    "CompletenessAuditor",
    "CompletenessViolation",
    "AuditReport",
]

_LAZY = {"CompletenessAuditor", "CompletenessViolation", "AuditReport"}


def __getattr__(name: str):
    if name in _LAZY:
        from repro.faults import auditor as _auditor

        return getattr(_auditor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
