"""Tests for the cost model."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import repro
from repro.core.calibration import mb_to_pages
from repro.core.costs import CostModel, CostParams


@pytest.fixture()
def cm() -> CostModel:
    return CostModel()


def test_params_defaults_from_table_va(cm: CostModel):
    assert cm.params.context_switch_us == pytest.approx(0.315)
    assert cm.params.hc_init_pml_us == pytest.approx(5495.0)
    assert cm.params.hc_init_pml_shadow_us == pytest.approx(5878.0)
    assert cm.params.ioctl_init_pml_us == pytest.approx(5651.0)


def test_pf_unit_costs_scale_with_memory(cm: CostModel):
    # ufd userspace fault handling is far more expensive than the kernel
    # soft-dirty path at every size (paper Table Vb M6 vs M5).
    for mb in (1, 10, 100, 1024):
        n = mb_to_pages(mb)
        assert cm.pf_user_unit_us(n) > cm.pf_kernel_unit_us(n)


def test_clear_refs_and_pt_walk_totals(cm: CostModel):
    n = mb_to_pages(1024)
    assert cm.clear_refs_us(n) == pytest.approx(2234.0)
    assert cm.pt_walk_user_us(n) == pytest.approx(594187.0)


def test_reverse_map_scales_with_addresses_and_space(cm: CostModel):
    n = mb_to_pages(1024)
    one = cm.reverse_map_us(1, n)
    many = cm.reverse_map_us(1000, n)
    assert many == pytest.approx(one * 1000)
    # Larger address space means costlier per-address lookups.
    assert cm.reverse_map_us(100, mb_to_pages(1024)) > cm.reverse_map_us(
        100, mb_to_pages(10)
    )
    assert cm.reverse_map_us(0, n) == 0.0


def test_rb_copy_cost(cm: CostModel):
    n = mb_to_pages(1024)
    # Full sweep of the space equals the published total (0.671 ms).
    assert cm.rb_copy_us(n, n) == pytest.approx(671.0)
    assert cm.rb_copy_us(0, n) == 0.0


def test_disable_logging_spread_over_calls(cm: CostModel):
    n = mb_to_pages(1024)
    total = cm.curves["m14_disable_logging"].total(n)
    assert cm.disable_logging_us(n, 10) == pytest.approx(float(total) / 10)
    assert cm.disable_logging_us(n, 0) == 0.0


def test_ufd_write_protect_reuses_clear_refs_curve(cm: CostModel):
    n = mb_to_pages(250)
    assert cm.ufd_write_protect_us(n) == pytest.approx(cm.clear_refs_us(n))


def test_cost_params_frozen():
    p = CostParams()
    with pytest.raises(AttributeError):
        p.vmread_us = 1.0  # type: ignore[misc]
    # Read-only from construction on: neither table takes an argument.
    with pytest.raises(TypeError):
        CostParams(vmread_us=1.0)  # type: ignore[call-arg]
    with pytest.raises(TypeError):
        CostModel(params=p)  # type: ignore[call-arg]
    with pytest.raises(AttributeError):
        CostModel().params = p  # type: ignore[misc]
    assert CostModel().params is CostModel().params


def test_every_cost_row_is_read_outside_the_table():
    """A row no simulator module reads is a dead setting: each
    ``CostParams`` field must be read as an attribute somewhere in
    ``src/`` other than ``core/costs.py``."""
    root = Path(repro.__file__).parent
    read = set()
    for path in root.rglob("*.py"):
        if path != root / "core" / "costs.py":
            tree = ast.parse(path.read_text(), str(path))
            read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert [f.name for f in fields(CostParams) if f.name not in read] == []
