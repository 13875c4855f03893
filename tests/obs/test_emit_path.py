"""One emit path: metrics come from the per-kind table, not the seams.

``TraceSession.emit`` feeds each event's ``EVENT_METRICS`` row, so the
seams outside ``repro/obs`` call ``metrics.inc``/``observe`` only for
counts no event carries.  The surface guard pins that set, the table's
coverage of ``EventKind`` and the disjointness of the two name spaces.
"""

import ast
import fnmatch
import re
from pathlib import Path

import repro.faults
import repro.obs
from repro.obs.events import EVENT_METRICS, Count, EventKind, Observe
from repro.obs.trace import TraceSession

SRC = Path(__file__).resolve().parents[2] / "src"

#: (module, metric name) of every direct ``metrics.inc``/``observe`` call
#: outside repro/obs; an f-string's placeholders read ``{}``.
EVENTLESS_SITES = sorted([
    ("repro/fleet/orchestrator.py", "fleet.host.{}.migrations_in"),
    ("repro/fleet/orchestrator.py", "fleet.host.{}.migrations_out"),
    ("repro/fleet/postcopy.py", "postcopy.pushed_pages"),
    ("repro/hw/pml.py", "pml.occupancy_at_flush"),
    ("repro/net/transport.py", "net.flows_opened"),
    ("repro/net/transport.py", "net.link.{}.flows"),
    ("repro/retry.py", "retry.exhausted"),
])


def _name(node: ast.expr) -> str:
    if isinstance(node, ast.Constant):
        return node.value
    assert isinstance(node, ast.JoinedStr), ast.dump(node)
    return "".join(
        v.value if isinstance(v, ast.Constant) else "{}" for v in node.values
    )


def _direct_metric_calls() -> list[tuple[str, str, str]]:
    """(module, method, name) of each ``<x>.metrics.inc/observe(name, ...)``
    call outside repro/obs."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module.startswith("repro/obs/"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("inc", "observe")
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "metrics"):
                found.append((module, node.func.attr, _name(node.args[0])))
    return found


def _glob(template: str) -> str:
    return re.sub(r"\{[^}]*\}", "*", template)


def test_metrics_named_only_at_eventless_sites():
    calls = _direct_metric_calls()
    assert sorted((m, n) for m, _, n in calls) == EVENTLESS_SITES


def test_every_event_kind_has_a_row():
    assert set(EVENT_METRICS) == set(EventKind)
    for row in EVENT_METRICS.values():
        assert all(isinstance(m, (Count, Observe)) for m in row)


def test_no_counter_is_both_derived_and_direct():
    direct = {_glob(n) for _, method, n in _direct_metric_calls()
              if method == "inc"}
    derived = {_glob(m.name) for row in EVENT_METRICS.values() for m in row
               if isinstance(m, Count)}
    clashes = {
        (d, r) for d in direct for r in derived
        if fnmatch.fnmatchcase(d, r) or fnmatch.fnmatchcase(r, d)
    }
    assert not clashes


def test_packages_do_not_reexport_active():
    """``ACTIVE`` lives in ``repro.obs.trace`` / ``repro.faults.injector``;
    a package-level copy would be the value at import time."""
    assert not hasattr(repro.obs, "ACTIVE")
    assert not hasattr(repro.faults, "ACTIVE")


# ---------------------------------------------------------------------
# the rows that need more than a template
# ---------------------------------------------------------------------
def _counters(*events) -> dict[str, int]:
    s = TraceSession(capacity=1, detail=False)
    for kind, fields in events:
        s.emit(kind, **fields)
    return s.metrics.snapshot()["counters"]


def test_pml_drop_cause_selects_the_counter():
    got = _counters(
        (EventKind.PML_DROP, dict(level="hyp", cause="injected", n=3, vcpu_id=0)),
        (EventKind.PML_DROP, dict(level="guest", cause="no_handler", n=5,
                                  vcpu_id=1)),
    )
    assert got == {"pml.hyp.injected_drops": 3, "pml.guest.dropped": 5}


def test_shootdown_counts_one_ipi_per_target():
    got = _counters((EventKind.TLB_SHOOTDOWN,
                     dict(initiator=0, targets=[1, 3], n_vpns=-1)))
    assert got == {"tlb.shootdowns": 1, "tlb.shootdown_ipis": 2}


def test_net_send_counts_retransmits_only_when_nonzero():
    send = dict(link="l0", flow="f0", n_pages=4, n_flows=1, spiked=False)
    got = _counters((EventKind.NET_SEND, dict(send, retransmitted=0)))
    assert "net.retransmitted_pages" not in got
    got = _counters((EventKind.NET_SEND, dict(send, retransmitted=0)),
                    (EventKind.NET_SEND, dict(send, retransmitted=2)))
    assert got == {"net.sends": 2, "net.flow.f0.pages": 8,
                   "net.link.l0.pages": 8, "net.retransmitted_pages": 2}
