"""The e2e tracer's targets exist in ``repro``.

``benchmarks/e2e/layers.py`` wraps every ``SPANS`` entry by name and
reads ``Mmu``'s path counters around each ``Mmu.access`` call.  A renamed
or deleted target raises ``AttributeError`` only in a traced benchmark
run; this test fails first.  It loads ``layers.py`` by path and leaves it
unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.experiments.harness import build_stack

LAYERS = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "layers.py"
)
_spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


@pytest.mark.parametrize(
    "module,attr", [(m, a) for m, a, *_ in layers.SPANS],
    ids=[a for _, a, *_ in layers.SPANS],
)
def test_span_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_mmu_has_the_counters_the_tracer_reads():
    mmu = build_stack(vm_mb=8).vm.mmu
    counts = layers._mmu_counters((mmu,))
    assert len(counts) == 3
    assert all(isinstance(c, int) for c in counts)
