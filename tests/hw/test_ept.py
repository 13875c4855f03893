"""Tests for the EPT second-level translation and dirty-bit semantics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, InvalidAddressError
from repro.hw.ept import EPT_ACCESSED, EPT_DIRTY, Ept


def test_map_translate():
    ept = Ept(16)
    ept.map([0, 1, 2], [100, 101, 102])
    assert list(ept.translate([2, 0])) == [102, 100]


def test_translate_unmapped_raises():
    ept = Ept(4)
    with pytest.raises(InvalidAddressError):
        ept.translate([0])


def test_touch_sets_accessed_and_dirty():
    ept = Ept(8)
    ept.map([0, 1], [10, 11])
    newly = ept.touch(np.array([0, 1]), np.array([False, True]))
    assert list(newly) == [1]
    assert (ept.flags[0] & EPT_ACCESSED) != 0
    assert (ept.flags[0] & EPT_DIRTY) == 0
    assert (ept.flags[1] & EPT_DIRTY) != 0


def test_touch_only_logs_zero_to_one_transition():
    """PML's defining property: a page already dirty is not re-logged."""
    ept = Ept(8)
    ept.map([0], [10])
    first = ept.touch(np.array([0]), np.array([True]))
    second = ept.touch(np.array([0]), np.array([True]))
    assert list(first) == [0]
    assert list(second) == []


def test_touch_deduplicates_within_batch():
    ept = Ept(8)
    ept.map([3], [13])
    newly = ept.touch(np.array([3, 3, 3]), np.array([True, True, True]))
    assert list(newly) == [3]


def test_clear_dirty_rearms_logging():
    ept = Ept(8)
    ept.map([0, 1], [10, 11])
    ept.touch(np.array([0, 1]), np.array([True, True]))
    assert set(ept.dirty_gpfns()) == {0, 1}
    n = ept.clear_dirty([0])
    assert n == 1
    assert set(ept.dirty_gpfns()) == {1}
    # Re-armed page logs again on the next write.
    newly = ept.touch(np.array([0]), np.array([True]))
    assert list(newly) == [0]


def test_clear_dirty_all():
    ept = Ept(8)
    ept.map([0, 1, 2], [10, 11, 12])
    ept.touch(np.array([0, 1, 2]), np.array([True, True, False]))
    assert ept.clear_dirty() == 2
    assert ept.dirty_gpfns().size == 0


def test_out_of_range_gpfn():
    ept = Ept(4)
    with pytest.raises(InvalidAddressError):
        ept.map([4], [0])


def test_zero_frames_rejected():
    with pytest.raises(ConfigurationError):
        Ept(0)


def test_length_mismatch():
    ept = Ept(4)
    with pytest.raises(ValueError):
        ept.map([0, 1], [5])
    ept.map([0, 1], [5, 6])
    with pytest.raises(ValueError):
        ept.touch(np.array([0, 1]), np.array([True]))


def test_touch_scalar_true_equals_all_true_mask():
    a, b = Ept(8), Ept(8)
    for ept in (a, b):
        ept.map([0, 1, 2], [10, 11, 12])
        ept.touch(np.array([1]), np.array([True]))
    g = np.array([0, 1, 2], dtype=np.int64)
    got = a.touch(g, True)
    want = b.touch(g, np.ones(g.size, dtype=bool))
    assert got.dtype == want.dtype and got.tolist() == want.tolist() == [0, 2]
    assert a.flags.tolist() == b.flags.tolist()


def test_touch_scalar_false_sets_only_accessed():
    ept = Ept(8)
    ept.map([0, 1], [10, 11])
    newly = ept.touch(np.array([0, 1]), False)
    assert newly.dtype == np.int64 and newly.size == 0
    assert ((ept.flags[:2] & EPT_ACCESSED) != 0).all()
    assert ((ept.flags[:2] & EPT_DIRTY) == 0).all()


def test_touch_scalar_true_logs_repeated_gpfn_once():
    ept = Ept(8)
    ept.map([2, 5], [12, 15])
    newly = ept.touch(np.array([5, 2, 5, 2, 5]), True)
    assert newly.tolist() == [2, 5]


#: Every public GPFN-taking entry; each gets a fully mapped EPT.
_EPT_ENTRIES = {
    "map": lambda ept, g: ept.map(g, [1] * len(g)),
    "translate": lambda ept, g: ept.translate(g),
    "touch": lambda ept, g: ept.touch(g, True),
    "unmap": lambda ept, g: ept.unmap(g),
    "clear_accessed": lambda ept, g: ept.clear_accessed(g),
    "clear_dirty": lambda ept, g: ept.clear_dirty(g),
    "accessed_mask": lambda ept, g: ept.accessed_mask(g),
}
_N = 16


def _mapped_ept() -> Ept:
    ept = Ept(_N)
    ept.map(np.arange(_N), np.arange(_N) + 100)
    return ept


@pytest.mark.parametrize("as_list", [False, True], ids=["int64", "list"])
@pytest.mark.parametrize("gpfn", [-1, _N, 2**63 - 1])
@pytest.mark.parametrize("entry", sorted(_EPT_ENTRIES))
def test_public_entries_reject_out_of_range_gpfns(entry, gpfn, as_list):
    """Both ends of the range fail at every public entry, negatives
    included, whatever the container."""
    gpfns = [0, gpfn] if as_list else np.array([0, gpfn], dtype=np.int64)
    with pytest.raises(InvalidAddressError):
        _EPT_ENTRIES[entry](_mapped_ept(), gpfns)


@pytest.mark.parametrize("as_list", [False, True], ids=["int64", "list"])
@pytest.mark.parametrize("gpfn", [0, _N - 1])
@pytest.mark.parametrize("entry", sorted(_EPT_ENTRIES))
def test_public_entries_accept_range_ends(entry, gpfn, as_list):
    gpfns = [gpfn] if as_list else np.array([gpfn], dtype=np.int64)
    _EPT_ENTRIES[entry](_mapped_ept(), gpfns)
