"""Memory economics: WSS-driven overcommit, ballooning, and reclaim.

The fleet layer's answer to "millions of users on finite hosts": admit
VMs against their *estimated working sets* instead of nominal footprints
(:mod:`~repro.fleet.economics.wss_history`,
:meth:`repro.fleet.host.Host.admit`), reclaim cold frames through a
hypercall-driven guest balloon with uffd refault-on-access
(:mod:`~repro.fleet.economics.balloon`), keep hosts solvent with a
pressure-driven reclaim controller
(:mod:`~repro.fleet.economics.reclaim`), and pack placements by demand
(:mod:`~repro.fleet.economics.placement`).  The ``overcommit``
experiment (:mod:`~repro.fleet.economics.experiment`) sweeps the
overcommit ratio against refault rate and latency — the frontier table.
"""

from repro.fleet.economics.balloon import BalloonDriver
from repro.fleet.economics.placement import choose_host, pack, wss_headroom_pages
from repro.fleet.economics.reclaim import HostEconomics
from repro.fleet.economics.wss_history import WssHistory

__all__ = [
    "BalloonDriver",
    "HostEconomics",
    "WssHistory",
    "choose_host",
    "pack",
    "wss_headroom_pages",
]
