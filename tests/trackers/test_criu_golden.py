"""Golden CRIU outputs: checkpoint, monitored session and lazy restore.

Every scenario runs on a fresh small stack and records what a caller can
observe: every ``CriuReport`` field, the simulated clock, the clock's
event counts and a digest of the restored memory.  The record must equal
the checked-in ``golden/criu.json`` exactly, floats included, so any
restructuring of the CRIU code is held to the simulated behaviour it
replaces.

Regenerating after an intentional change::

    REPRO_REGOLDEN=1 PYTHONPATH=src python -m pytest tests/trackers/test_criu_golden.py

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
from repro.trackers.criu import Criu, lazy_restore, restore

GOLDEN = Path(__file__).parent / "golden" / "criu.json"
TECHNIQUES = [t.value for t in (Technique.PROC, Technique.UFD, Technique.SPML,
                                Technique.EPML, Technique.ORACLE)]
PREDUMP_ROUNDS = (0, 1, 3)
N_PAGES = 96


def _app():
    """A fresh stack with one fully-written process.  The 32-entry PML
    buffer makes buffer-full events appear in these small runs."""
    clock = SimClock()
    hv = Hypervisor(clock, CostModel(), host_mem_mb=128)
    vm = hv.create_vm("vm0", mem_mb=32, pml_buffer_entries=32)
    kernel = GuestKernel(vm, switch_interval_us=50_000.0)
    proc = kernel.spawn("app", n_pages=N_PAGES)
    proc.space.add_vma(N_PAGES, "heap")
    kernel.access(proc, np.arange(N_PAGES), True)
    return kernel, proc


def _mutator(kernel, proc):
    """Each call writes a different scattered set of 40 pages."""
    calls = [0]

    def mutate():
        calls[0] += 1
        vpns = (np.arange(40) * 7 + 11 * calls[0]) % N_PAGES
        kernel.access(proc, vpns, True)
        kernel.access(proc, (vpns + 3) % N_PAGES, False)

    return mutate


def _digest(tokens) -> str:
    return hashlib.sha256(np.asarray(tokens, dtype=np.uint64).tobytes()).hexdigest()


def _report(report) -> dict:
    out = dataclasses.asdict(report)
    out["technique"] = report.technique.value
    return out


def _clock(kernel) -> dict:
    return {"now_us": kernel.clock.now_us,
            "events": dict(sorted(kernel.clock.events().items()))}


def _restored(kernel, image) -> dict:
    clone = restore(kernel, image)
    vpns = clone.space.mapped_vpns()
    tokens = kernel.vm.mmu.read_page_contents(clone.space.pt, vpns)
    return {"rounds": [int(m.n_pages) for m in image.memory],
            "vpns": _digest(vpns), "tokens": _digest(tokens)}


def _live(kernel, proc) -> str:
    return _digest(kernel.vm.mmu.read_page_contents(
        proc.space.pt, proc.space.mapped_vpns()))


def checkpoint_record(technique: str, predump_rounds: int) -> dict:
    kernel, proc = _app()
    mutate = _mutator(kernel, proc)
    image, report = Criu(kernel, technique).checkpoint(
        proc, predump_rounds=predump_rounds,
        run_between_rounds=mutate if predump_rounds else None,
    )
    return {"report": _report(report), "clock": _clock(kernel),
            "live": _live(kernel, proc), "restored": _restored(kernel, image)}


def session_record(technique: str) -> dict:
    kernel, proc = _app()
    mutate = _mutator(kernel, proc)
    session = Criu(kernel, technique).begin(proc)
    dumps = []
    for full in (True, False, False):
        mutate()
        dumps.append({"report": _report(session.dump(full=full)),
                      "clock": _clock(kernel)})
    image = session.finish()
    return {"dumps": dumps, "live": _live(kernel, proc),
            "restored": _restored(kernel, image)}


def lazy_record() -> dict:
    kernel, proc = _app()
    image, _ = Criu(kernel, Technique.EPML).checkpoint(
        proc, predump_rounds=1, run_between_rounds=_mutator(kernel, proc))
    lazy = lazy_restore(kernel, image)
    touches = []
    for vpns, write in (([3, 7, 11], False), ([5], True),
                        (list(range(16)), False), ([3, 90], True)):
        kernel.access(lazy.process, vpns, write)
        touches.append({
            "pages_fetched": lazy.stats.pages_fetched,
            "contents": [int(t) for t in kernel.vm.mmu.read_page_contents(
                lazy.process.space.pt, np.array(vpns))],
            "clock": _clock(kernel),
        })
    lazy.finish()
    kernel.access(lazy.process, [40], False)
    return {"image_pages": lazy.stats.image_pages, "touches": touches,
            "after_finish": {"pages_fetched": lazy.stats.pages_fetched,
                             "clock": _clock(kernel)}}


def record() -> dict:
    return {
        "checkpoint": {f"{t}/{n}": checkpoint_record(t, n)
                       for t in TECHNIQUES for n in PREDUMP_ROUNDS},
        "session": {t: session_record(t) for t in TECHNIQUES},
        "lazy": lazy_record(),
    }


def test_criu_outputs_match_golden():
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
