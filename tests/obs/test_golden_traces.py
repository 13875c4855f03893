"""Golden-trace regression tests.

Each canonical run (see :mod:`tests.obs.golden_runs`) must serialize to a
JSONL stream *byte-identical* to the checked-in file under ``golden/``.
Any change to instrumentation seams, event fields, serialization, or the
simulated control flow itself shows up as a diff here.

Regenerating after an intentional change::

    REPRO_REGOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_golden_traces.py

then review the golden-file diff like any other code change.

The same files also certify the multipass reference walk
(:class:`repro.emu.RefMmu`): swapped in for every VM's MMU, it must
reproduce each golden stream byte for byte.
"""

import os
from pathlib import Path

import pytest

from repro.emu import RefMmu
from repro.hypervisor import vm as vm_mod
from repro.obs.trace import TraceBuffer

from .golden_runs import GOLDEN_SMP_TECHNIQUES, GOLDEN_TECHNIQUES, canonical_run

GOLDEN_DIR = Path(__file__).parent / "golden"

#: (technique, n_vcpus) scenarios frozen under ``golden/``.
GOLDEN_SCENARIOS = (
    [(t, 1) for t in GOLDEN_TECHNIQUES]
    + [(t, 2) for t in GOLDEN_SMP_TECHNIQUES]
)


def _golden_path(technique: str, n_vcpus: int) -> Path:
    suffix = "" if n_vcpus == 1 else f"-smp{n_vcpus}"
    return GOLDEN_DIR / f"{technique}{suffix}.jsonl"


def _regolden() -> bool:
    return os.environ.get("REPRO_REGOLDEN") == "1"


@pytest.mark.parametrize("technique,n_vcpus", GOLDEN_SCENARIOS)
def test_trace_matches_golden(technique, n_vcpus):
    session = canonical_run(technique, n_vcpus=n_vcpus)
    got = session.trace.to_jsonl()
    assert got, f"canonical {technique} run emitted no events"
    path = _golden_path(technique, n_vcpus)
    if _regolden():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(got)
        pytest.skip(f"regenerated {path}")
    assert path.is_file(), (
        f"missing golden trace {path}; regenerate with REPRO_REGOLDEN=1"
    )
    assert got == path.read_text()


@pytest.mark.parametrize("technique,n_vcpus", GOLDEN_SCENARIOS)
def test_reference_walk_matches_golden(technique, n_vcpus, monkeypatch):
    """The multipass oracle emits the production walk's exact trace."""
    if _regolden():
        pytest.skip("regolden pass")
    built = []

    def ref_mmu(*args):
        built.append(RefMmu(*args))
        return built[-1]

    monkeypatch.setattr(vm_mod, "Mmu", ref_mmu)
    got = canonical_run(technique, n_vcpus=n_vcpus).trace.to_jsonl()
    assert [type(m) for m in built] == [RefMmu]
    assert got == _golden_path(technique, n_vcpus).read_text()


@pytest.mark.parametrize("technique,n_vcpus", GOLDEN_SCENARIOS)
def test_replay_is_deterministic(technique, n_vcpus):
    """Two identical runs serialize byte-identically (no hidden state)."""
    a = canonical_run(technique, n_vcpus=n_vcpus).trace.to_jsonl()
    b = canonical_run(technique, n_vcpus=n_vcpus).trace.to_jsonl()
    assert a == b


@pytest.mark.parametrize("technique,n_vcpus", GOLDEN_SCENARIOS)
def test_golden_roundtrips_through_parser(technique, n_vcpus):
    """read_jsonl(write_jsonl(x)) preserves every event exactly."""
    if _regolden():
        pytest.skip("regolden pass")
    path = _golden_path(technique, n_vcpus)
    buf = TraceBuffer.read_jsonl(path)
    assert buf.to_jsonl() == path.read_text()
    assert len(buf) > 0


def test_golden_traces_are_nontrivial():
    """The frozen scenarios exercise the interesting seams: buffer-full
    consequences differ per technique (SPML: pml_full vmexits; EPML:
    self-IPIs with no pml_full vmexit)."""
    if _regolden():
        pytest.skip("regolden pass")
    spml = TraceBuffer.read_jsonl(GOLDEN_DIR / "spml.jsonl")
    epml = TraceBuffer.read_jsonl(GOLDEN_DIR / "epml.jsonl")
    spml_counts = spml.kind_counts()
    epml_counts = epml.kind_counts()
    assert spml_counts.get("pml_full", 0) > 0
    assert spml_counts.get("vmexit", 0) > 0
    assert spml_counts.get("hypercall", 0) > 0
    assert epml_counts.get("self_ipi", 0) > 0
    assert epml_counts.get("collect", 0) > 0


def test_smp_goldens_span_vcpus():
    """The 2-vCPU frozen scenarios genuinely run on both vCPUs: events
    carry both vcpu_id values, and — for EPML, whose re-arm invalidates
    guest TLBs — the collect-after-migration triggers cross-vCPU TLB
    shootdowns.  (SPML logs at EPT level and never touches guest TLBs,
    so it legitimately has none.)"""
    if _regolden():
        pytest.skip("regolden pass")
    for technique in GOLDEN_SMP_TECHNIQUES:
        buf = TraceBuffer.read_jsonl(_golden_path(technique, 2))
        vcpu_ids = {
            e.fields["vcpu_id"] for e in buf.events if "vcpu_id" in e.fields
        }
        assert vcpu_ids == {0, 1}, (
            f"{technique}-smp2 golden only touches vCPUs {vcpu_ids}"
        )
    epml = TraceBuffer.read_jsonl(_golden_path("epml", 2))
    assert epml.kind_counts().get("tlb_shootdown", 0) > 0, (
        "epml-smp2 golden has no cross-vCPU shootdowns"
    )
