"""Tests for guest page tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, InvalidAddressError
from repro.hw.pagetable import (
    PTE_DIRTY,
    PTE_SOFT_DIRTY,
    PTE_UFD_WP,
    PTE_WRITABLE,
    PageTable,
)


def test_map_sets_present_writable_softdirty():
    pt = PageTable(16)
    pt.map([0, 3, 5], [10, 11, 12])
    assert pt.present_mask([0, 3, 5]).all()
    assert pt.flag_mask([0, 3, 5], PTE_WRITABLE).all()
    # New anonymous mappings are born soft-dirty (Linux semantics).
    assert pt.flag_mask([0, 3, 5], PTE_SOFT_DIRTY).all()
    assert not pt.present_mask([1]).any()


def test_translate_and_unmap():
    pt = PageTable(8)
    pt.map([2, 4], [20, 40])
    assert list(pt.translate([4, 2])) == [40, 20]
    freed = pt.unmap([2])
    assert list(freed) == [20]
    with pytest.raises(InvalidAddressError):
        pt.translate([2])


def test_flag_set_clear():
    pt = PageTable(8)
    pt.map([1], [5])
    pt.clear_flags([1], PTE_SOFT_DIRTY | PTE_WRITABLE)
    assert not pt.flag_mask([1], PTE_SOFT_DIRTY).any()
    assert not pt.flag_mask([1], PTE_WRITABLE).any()
    assert pt.present_mask([1]).all()
    pt.set_flags([1], PTE_DIRTY)
    assert pt.flag_mask([1], PTE_DIRTY).all()


def test_vpns_with_flag():
    pt = PageTable(8)
    pt.map([0, 1, 2], [5, 6, 7])
    pt.clear_flags([0, 1, 2], PTE_SOFT_DIRTY)
    pt.set_flags([1], PTE_SOFT_DIRTY)
    assert list(pt.vpns_with_flag(PTE_SOFT_DIRTY)) == [1]
    assert list(pt.mapped_vpns()) == [0, 1, 2]


def test_ufd_wp_flag_roundtrip():
    pt = PageTable(4)
    pt.map([0], [1])
    pt.set_flags([0], PTE_UFD_WP)
    assert pt.flag_mask([0], PTE_UFD_WP).all()


def test_out_of_range_vpn_rejected():
    pt = PageTable(4)
    with pytest.raises(InvalidAddressError):
        pt.map([4], [0])
    with pytest.raises(InvalidAddressError):
        pt.present_mask([-1])


def test_length_mismatch_rejected():
    pt = PageTable(4)
    with pytest.raises(ValueError):
        pt.map([0, 1], [5])


def test_zero_pages_rejected():
    with pytest.raises(ConfigurationError):
        PageTable(0)


def test_reverse_lookup_finds_vpns():
    pt = PageTable(16)
    vpns = np.array([1, 5, 9, 12])
    gpfns = np.array([40, 10, 30, 20])
    pt.map(vpns, gpfns)
    out = pt.reverse_lookup([30, 40, 999])
    assert list(out) == [9, 1, -1]


def test_reverse_lookup_empty_table():
    pt = PageTable(4)
    out = pt.reverse_lookup([1, 2])
    assert list(out) == [-1, -1]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=255), min_size=1, max_size=64, unique=True
    )
)
def test_property_reverse_lookup_inverts_translate(vpns):
    """reverse_lookup(translate(v)) == v for any injective mapping."""
    pt = PageTable(256)
    vp = np.asarray(vpns, dtype=np.int64)
    gp = vp * 7 + 3  # injective GPFNs
    pt.map(vp, gp)
    back = pt.reverse_lookup(pt.translate(vp))
    assert np.array_equal(back, vp)


#: Every public VPN-taking entry; each gets a fully mapped table.
_PT_ENTRIES = {
    "map": lambda pt, v: pt.map(v, [1] * len(v)),
    "unmap": lambda pt, v: pt.unmap(v),
    "present_mask": lambda pt, v: pt.present_mask(v),
    "flag_mask": lambda pt, v: pt.flag_mask(v, PTE_DIRTY),
    "set_flags": lambda pt, v: pt.set_flags(v, PTE_DIRTY),
    "clear_flags": lambda pt, v: pt.clear_flags(v, PTE_DIRTY),
    "translate": lambda pt, v: pt.translate(v),
}
_N = 16


def _mapped_table() -> PageTable:
    pt = PageTable(_N)
    pt.map(np.arange(_N), np.arange(_N) + 100)
    return pt


@pytest.mark.parametrize("as_list", [False, True], ids=["int64", "list"])
@pytest.mark.parametrize("vpn", [-1, _N, 2**63 - 1])
@pytest.mark.parametrize("entry", sorted(_PT_ENTRIES))
def test_public_entries_reject_out_of_range_vpns(entry, vpn, as_list):
    """Both ends of the range fail at every public entry, negatives
    included, whatever the container."""
    vpns = [0, vpn] if as_list else np.array([0, vpn], dtype=np.int64)
    with pytest.raises(InvalidAddressError):
        _PT_ENTRIES[entry](_mapped_table(), vpns)


@pytest.mark.parametrize("as_list", [False, True], ids=["int64", "list"])
@pytest.mark.parametrize("vpn", [0, _N - 1])
@pytest.mark.parametrize("entry", sorted(_PT_ENTRIES))
def test_public_entries_accept_range_ends(entry, vpn, as_list):
    vpns = [vpn] if as_list else np.array([vpn], dtype=np.int64)
    _PT_ENTRIES[entry](_mapped_table(), vpns)
