"""Tests for the paper-derived calibration data and size curves."""

import numpy as np
import pytest

from repro.core import calibration
from repro.core.calibration import (
    PAGES_PER_MB,
    SizeCurve,
    mb_to_pages,
    size_curves,
)
from repro.errors import ConfigurationError


def test_pages_per_mb():
    assert PAGES_PER_MB == 256
    assert mb_to_pages(1) == 256
    assert mb_to_pages(1024) == 262144


def test_all_table_vb_metrics_have_seven_points():
    for name, vals in calibration.TABLE_VB_MS.items():
        assert len(vals) == len(calibration.TABLE_VB_SIZES_MB), name


def test_curves_match_published_points_exactly():
    curves = size_curves()
    # M16 at 1 GB is 594.187 ms (paper Table Vb)
    got = curves["m16_pt_walk_user"].total(mb_to_pages(1024))
    assert got == pytest.approx(594.187 * 1000.0)
    # M17 at 250 MB is 1211 ms
    got = curves["m17_reverse_map"].total(mb_to_pages(250))
    assert got == pytest.approx(1211.0 * 1000.0)


def test_curve_interpolates_between_points():
    curves = size_curves()
    c = curves["m5_pf_kernel"]
    lo = c.total(mb_to_pages(500))
    hi = c.total(mb_to_pages(1024))
    mid = c.total(mb_to_pages(700))
    assert lo < mid < hi


def test_curve_extrapolates_below_range_proportionally():
    c = size_curves()["m6_pf_user"]
    half = c.total(mb_to_pages(1) // 2)
    full = c.total(mb_to_pages(1))
    assert half == pytest.approx(full / 2)


def test_curve_extrapolates_above_range_with_last_slope():
    c = size_curves()["m16_pt_walk_user"]
    at_1g = c.total(mb_to_pages(1024))
    at_2g = c.total(mb_to_pages(2048))
    slope = (c.total_us[-1] - c.total_us[-2]) / (c.pages[-1] - c.pages[-2])
    expected = at_1g + slope * (mb_to_pages(2048) - mb_to_pages(1024))
    assert at_2g == pytest.approx(expected)


def test_curve_vectorised_evaluation():
    c = size_curves()["m15_clear_refs"]
    xs = np.array([mb_to_pages(1), mb_to_pages(10), mb_to_pages(1024)])
    out = c.total(xs)
    assert isinstance(out, np.ndarray)
    assert out[0] == pytest.approx(32.0)  # 0.032 ms in us
    assert out[2] == pytest.approx(2234.0)


def test_unit_cost_divides_total():
    c = size_curves()["m18_rb_copy"]
    n = mb_to_pages(100)
    assert c.unit(n) == pytest.approx(float(c.total(n)) / n)
    assert c.unit(0) == 0.0


def test_reverse_map_is_superlinear():
    """The paper's M17 grows super-linearly (pagemap scan per address)."""
    c = size_curves()["m17_reverse_map"]
    assert c.unit(mb_to_pages(1024)) > 2 * c.unit(mb_to_pages(1))


def test_size_curve_validation():
    with pytest.raises(ConfigurationError):
        SizeCurve("bad", np.array([1.0]), np.array([1.0]))
    with pytest.raises(ConfigurationError):
        SizeCurve("bad", np.array([2.0, 1.0]), np.array([1.0, 2.0]))


def test_table_va_values():
    assert calibration.TABLE_VA_US["m1_context_switch"] == pytest.approx(0.315)
    assert calibration.TABLE_VA_US["m7_vmread"] == pytest.approx(0.936)
    assert calibration.TABLE_VA_US["m8_vmwrite"] == pytest.approx(0.801)
    assert calibration.PML_BUFFER_ENTRIES == 512


def _probe_points(c: SizeCurve) -> list[int]:
    """Below range, at a knot, between knots and above range."""
    p = [int(x) for x in c.pages]
    return [p[0] // 2, p[3], (p[3] + p[4]) // 2 + 1, p[-1] * 2 + 7]


def test_memoized_total_and_unit_equal_fresh_curve():
    warm = size_curves()
    for name, c in warm.items():
        for n in _probe_points(c):
            for arg in (n, np.int64(n)):
                first = c.total(arg)
                again = c.total(arg)
                fresh = size_curves()[name].total(n)
                assert type(first) is float and first == fresh, (name, n)
                assert again is first  # served from the memo
                assert c.unit(arg) == size_curves()[name].unit(n)
                assert type(c.unit(arg)) is float


def test_array_total_bypasses_memo_and_matches_interp():
    c = size_curves()["m18_rb_copy"]
    xs = np.array([int(x) for x in c.pages[1:-1]] + [1000, 70000])
    out = c.total(xs)
    assert isinstance(out, np.ndarray)
    assert c._memo == {}  # array inputs are not memoized
    assert out.tolist() == np.interp(xs, c.pages, c.total_us).tolist()
    assert out.tolist() == [c.total(int(x)) for x in xs]
