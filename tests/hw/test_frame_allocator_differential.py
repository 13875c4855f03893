"""Differential test: the bump-pointer ``FrameAllocator`` against the
array-stack allocator it replaced.

The oracle below is the previous implementation, kept verbatim apart from
its name and the ``FRAME_EXHAUSTION`` hook (``tests/faults`` covers that
site): a pre-sized numpy free stack ``[n-1, ..., 1, 0]``.  Any sequence of
allocations, frees (distinct frames per call), over-allocations, double
frees and out-of-range frees must hand out the same frames in the same
order, keep the same counts and raise the same error types.

The oracle accepts a frame repeated within one ``free`` call and pushes it
twice; ``FrameAllocator`` rejects that call as a double free before
changing anything, so for it the oracle is not called and the state must
stay equal to the oracle's untouched one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidAddressError, OutOfFramesError
from repro.hw.memory import FrameAllocator


class ArrayStackAllocator:
    """The materialised LIFO free stack (the oracle)."""

    def __init__(self, n_frames: int) -> None:
        self.n_frames = n_frames
        self._free = np.arange(n_frames - 1, -1, -1, dtype=np.int64)
        self._top = n_frames
        self._allocated = np.zeros(n_frames, dtype=bool)

    @property
    def n_free(self) -> int:
        return self._top

    @property
    def n_allocated(self) -> int:
        return self.n_frames - self._top

    def alloc(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be >= 0: {count}")
        if count > self._top:
            raise OutOfFramesError(
                f"requested {count} frames, only {self._top} free"
            )
        frames = self._free[self._top - count:self._top].copy()
        self._top -= count
        self._allocated[frames] = True
        return frames

    def free(self, frames) -> None:
        arr = np.asarray(frames, dtype=np.int64).ravel()
        if arr.size == 0:
            return
        if np.any(arr < 0) or np.any(arr >= self.n_frames):
            raise InvalidAddressError("frame number out of range")
        if not np.all(self._allocated[arr]):
            raise InvalidAddressError("double free of physical frame")
        self._allocated[arr] = False
        self._free[self._top:self._top + arr.size] = arr
        self._top += arr.size

    def is_allocated(self, frame: int) -> bool:
        return bool(self._allocated[frame])


def _outcome(fn, *args):
    """(result, None) or (None, exception type)."""
    try:
        return fn(*args), None
    except Exception as exc:  # the exception type is what is compared
        return None, type(exc)


def _same_state(got: FrameAllocator, want: ArrayStackAllocator) -> None:
    assert got.n_free == want.n_free
    assert got.n_allocated == want.n_allocated
    for f in range(want.n_frames):
        assert got.is_allocated(f) == want.is_allocated(f)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=48), st.data())
def test_bump_allocator_matches_array_stack(n_frames, data):
    got, want = FrameAllocator(n_frames), ArrayStackAllocator(n_frames)
    held: list[int] = []  # frames currently allocated (oracle's view)
    ever_freed: list[int] = []
    for _ in range(data.draw(st.integers(0, 25), label="n_ops")):
        op = data.draw(
            st.sampled_from(["alloc", "over_alloc", "free", "double_free",
                             "bad_free", "repeat_free"]),
            label="op",
        )
        if op in ("alloc", "over_alloc"):
            lo = want.n_free + 1 if op == "over_alloc" else 0
            count = data.draw(
                st.integers(lo, max(lo, want.n_free) + (3 if lo else 0)),
                label="count",
            )
            (g, ge), (w, we) = _outcome(got.alloc, count), _outcome(
                want.alloc, count
            )
            assert ge is we
            if we is None:
                assert g.dtype == w.dtype and np.array_equal(g, w)
                held.extend(int(f) for f in w)
            else:
                assert we is OutOfFramesError and op == "over_alloc"
        else:
            frames: list[int] = []
            if held:
                frames = data.draw(
                    st.lists(st.sampled_from(held), unique=True),
                    label="frees",
                )
            if op == "repeat_free":
                if not frames:
                    continue
                frames = data.draw(st.permutations(
                    frames + [data.draw(st.sampled_from(frames))]
                ), label="order")
                with pytest.raises(InvalidAddressError):
                    got.free(frames)
                _same_state(got, want)
                continue
            if op == "double_free":
                stale = [f for f in ever_freed if f not in held]
                if not stale:
                    continue
                frames = frames + [data.draw(st.sampled_from(stale))]
            elif op == "bad_free":
                frames = frames + [data.draw(
                    st.sampled_from([-1, n_frames, n_frames + 5]))]
            frames = data.draw(st.permutations(frames), label="order")
            (_, ge), (_, we) = _outcome(got.free, frames), _outcome(
                want.free, frames
            )
            assert ge is we
            if op == "free":
                assert we is None
                held = [f for f in held if f not in frames]
                ever_freed.extend(frames)
            else:
                assert we is InvalidAddressError
        _same_state(got, want)


def test_frame_repeated_in_one_free_is_rejected():
    fa = FrameAllocator(4)
    f = fa.alloc(2)
    with pytest.raises(InvalidAddressError, match="double free"):
        fa.free([f[0], f[0]])
    assert (fa.n_free, fa.n_allocated) == (2, 2)
    fa.free(f)
    assert sorted(fa.alloc(4).tolist()) == [0, 1, 2, 3]


def test_drain_after_frees_matches_array_stack():
    """Fill the pool, free a scattered set, then take everything left."""
    got, want = FrameAllocator(1000), ArrayStackAllocator(1000)
    a, b = got.alloc(600), want.alloc(600)
    assert np.array_equal(a, b)
    back = b[::7][::-1].copy()
    got.free(back)
    want.free(back)
    rest = want.n_free
    assert np.array_equal(got.alloc(rest), want.alloc(rest))
    _same_state(got, want)
    with pytest.raises(OutOfFramesError):
        got.alloc(1)
