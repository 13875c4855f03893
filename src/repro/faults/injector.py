"""The fault-injector registry the hardware/hypervisor seams consult.

Zero overhead when disabled: hooked modules guard every site with
``if injector.ACTIVE is not None`` — a module-attribute load plus an
identity check — so the fault subsystem costs nothing (and changes no
simulated result bit) unless a plan is activated.  Tests and experiments
activate a plan with::

    with plan.active() as inj:
        ...            # faults fire deterministically from the plan seed
    inj.stats()        # opportunities/fires per site

Only one injector is active per process at a time (experiments drive one
stack per run); nesting restores the previous one on exit.
"""

from __future__ import annotations

import numpy as np

from repro.faults.plan import FaultPlan, FaultSite, FaultSpec, site_seed

__all__ = ["ACTIVE", "FaultInjector", "activate"]

#: The process-wide active injector; ``None`` means fault injection is off
#: and every hooked seam behaves exactly as on main.
ACTIVE: "FaultInjector | None" = None


def activate(inj: "FaultInjector | None") -> "FaultInjector | None":
    """Install ``inj`` as the active injector; returns the previous one."""
    global ACTIVE
    prev = ACTIVE
    ACTIVE = inj
    return prev


class _SiteState:
    __slots__ = ("spec", "rng", "opportunities", "fires")

    def __init__(self, spec: FaultSpec, seed: int) -> None:
        self.spec = spec
        self.rng = np.random.default_rng(site_seed(seed, spec.site))
        self.opportunities = 0
        self.fires = 0


class FaultInjector:
    """Deterministic per-site firing decisions for one :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._sites: dict[FaultSite, _SiteState] = {
            spec.site: _SiteState(spec, plan.seed) for spec in plan.specs
        }

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def should_fire(self, site: FaultSite) -> bool:
        """One opportunity at ``site``; True if the fault fires."""
        st = self._sites.get(site)
        if st is None:
            return False
        st.opportunities += 1
        spec = st.spec
        if st.opportunities <= spec.skip_first:
            return False
        if spec.max_fires is not None and st.fires >= spec.max_fires:
            return False
        if spec.rate <= 0.0:
            return False
        fire = spec.rate >= 1.0 or st.rng.random() < spec.rate
        if fire:
            st.fires += 1
        return fire

    def drop_count(self, site: FaultSite, n: int) -> int:
        """How many of ``n`` entries to drop (per-entry probability)."""
        st = self._sites.get(site)
        if st is None or n <= 0:
            return 0
        st.opportunities += 1
        spec = st.spec
        if st.opportunities <= spec.skip_first or spec.rate <= 0.0:
            return 0
        k = int(st.rng.binomial(n, spec.rate))
        if spec.max_fires is not None:
            k = min(k, spec.max_fires - st.fires)
            k = max(k, 0)
        st.fires += k
        return k

    def drop_entries(self, site: FaultSite, values: np.ndarray) -> np.ndarray:
        """Return ``values`` with a deterministic subset dropped."""
        k = self.drop_count(site, int(values.size))
        if k == 0:
            return values
        st = self._sites[site]
        keep = np.ones(values.size, dtype=bool)
        keep[st.rng.choice(values.size, size=k, replace=False)] = False
        return values[keep]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def fires(self, site: FaultSite) -> int:
        st = self._sites.get(site)
        return st.fires if st is not None else 0

    def total_fires(self) -> int:
        return sum(st.fires for st in self._sites.values())

    def stats(self) -> dict[str, dict[str, int]]:
        return {
            site.value: {"opportunities": st.opportunities, "fires": st.fires}
            for site, st in self._sites.items()
        }

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------
    def active(self) -> "_Activation":
        return _Activation(self)


class _Activation:
    """Context manager installing one injector, restoring the previous."""

    def __init__(self, inj: FaultInjector) -> None:
        self.injector = inj
        self._prev: FaultInjector | None = None

    def __enter__(self) -> FaultInjector:
        self._prev = activate(self.injector)
        return self.injector

    def __exit__(self, *exc: object) -> None:
        activate(self._prev)
