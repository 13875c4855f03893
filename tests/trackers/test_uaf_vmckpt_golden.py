"""Golden outputs of the UAF mitigator and of whole-VM checkpointing.

Both charge unit costs of their own: the UAF scan per object and per page,
the VM checkpoint a disk write per page.  Each scenario runs on a fresh
small stack and records every report field, the simulated clock and its
event counts (and, for the VM checkpoint, a digest of every image round).
The record must equal the checked-in ``golden/uaf_vmckpt.json`` exactly,
floats included, so a change to where those costs are kept is held to the
simulated behaviour it replaces.

Regenerating after an intentional change::

    REPRO_REGOLDEN=1 PYTHONPATH=src python -m pytest tests/trackers/test_uaf_vmckpt_golden.py

then review the golden-file diff like any other code change.
"""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.core.tracking import Technique
from repro.guest.kernel import GuestKernel
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.vm_checkpoint import checkpoint_vm
from repro.trackers.boehm import GcHeap
from repro.trackers.uaf import UafMitigator

GOLDEN = Path(__file__).parent / "golden" / "uaf_vmckpt.json"
UAF_TECHNIQUES = [t.value for t in (Technique.PROC, Technique.SPML, Technique.EPML)]
PREDUMP_ROUNDS = (0, 2)
N_OBJS = 1_000
CYCLES = 6


def _kernel():
    clock = SimClock()
    hv = Hypervisor(clock, CostModel(), host_mem_mb=128)
    vm = hv.create_vm("vm0", mem_mb=32, pml_buffer_entries=32)
    return hv, GuestKernel(vm, switch_interval_us=50_000.0)


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.uint64).tobytes()).hexdigest()


def _clock(clock) -> dict:
    return {"now_us": clock.now_us, "events": dict(sorted(clock.events().items()))}


def uaf_record(technique: str) -> dict:
    """The ``bench_uaf_extension`` scenario at a small size."""
    _, kernel = _kernel()
    proc = kernel.spawn("app", n_pages=4096)
    heap = GcHeap(kernel, proc, heap_pages=2048)
    m = UafMitigator(kernel, heap, technique)
    rng = np.random.default_rng(5)
    with m:
        live = heap.alloc(N_OBJS, 64)
        heap.write_objs(live)
        for _ in range(CYCLES):
            fresh = heap.alloc(N_OBJS // 10, 64)
            heap.write_objs(fresh)
            m.qfree(rng.permutation(fresh))
            m.collect()
    return {"cycles": [dataclasses.asdict(c) for c in m.cycles],
            "quarantine": m.quarantine_size, "clock": _clock(kernel.clock)}


def vm_checkpoint_record(predump_rounds: int) -> dict:
    hv, kernel = _kernel()
    procs = []
    for name, n_pages in (("a", 96), ("b", 64)):
        proc = kernel.spawn(name, n_pages=n_pages)
        proc.space.add_vma(n_pages)
        kernel.access(proc, np.arange(n_pages), True)
        procs.append(proc)
    calls = [0]

    def run_round():
        calls[0] += 1
        vpns = (np.arange(24) * 5 + 7 * calls[0]) % 96
        kernel.access(procs[0], vpns, True)
        kernel.access(procs[1], vpns[:8] % 64, True)

    image, report = checkpoint_vm(
        hv, kernel.vm, run_round if predump_rounds else None,
        predump_rounds=predump_rounds,
    )
    return {
        "report": dataclasses.asdict(report),
        "clock": _clock(kernel.clock),
        "image": {"vm_name": image.vm_name, "mem_pages": image.mem_pages,
                  "rounds": [{"gpfns": _digest(g), "tokens": _digest(t),
                              "n": int(g.size)} for g, t in image.rounds]},
    }


def record() -> dict:
    return {
        "uaf": {t: uaf_record(t) for t in UAF_TECHNIQUES},
        "vm_checkpoint": {str(n): vm_checkpoint_record(n) for n in PREDUMP_ROUNDS},
    }


def test_uaf_and_vm_checkpoint_outputs_match_golden():
    got = json.loads(json.dumps(record()))
    if os.environ.get("REPRO_REGOLDEN") == "1":
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN}")
    assert GOLDEN.is_file(), f"missing {GOLDEN}; regenerate with REPRO_REGOLDEN=1"
    want = json.loads(GOLDEN.read_text())
    for section in want:
        for key in want[section]:
            assert got[section][key] == want[section][key], (section, key)
    assert got == want
