"""Outward-rounded interval arithmetic primitives.

Results are rounded outward: lower bounds are nudged toward -inf and
upper bounds toward +inf by one float64 ULP, once per output entry,
instead of switching FPU rounding modes. This keeps the kernel portable
and thread-safe. One ULP covers a single rounding; it does not cover all
the error an n-term sum can accumulate.

An interval pair is one array, the lower ends over the upper ends: a
box's `ends` is (2, d) and `matvec_bounds` maps (2, m) to (2, n), each
with a leading axis for a stack of boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Interval",
    "Box",
    "IntervalOverflowError",
    "UnsplittableError",
    "affine_rows",
    "iv_bisect",
    "matvec_bounds",
    "midpoint",
    "round_out",
]


class IntervalOverflowError(ArithmeticError):
    """Raised when an interval bound overflows to +-inf."""


class UnsplittableError(ValueError):
    """Raised when asked to bisect a zero-width dimension."""


def round_out(lo, hi):
    """Nudge the arrays lo and hi outward by one ULP, in place."""
    np.nextafter(lo, -np.inf, out=lo)
    np.nextafter(hi, np.inf, out=hi)


def _check_overflow(v):
    """Raise IntervalOverflowError unless every entry of v is finite."""
    if not np.isfinite(v).all():
        raise IntervalOverflowError("interval overflow")


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with finite bounds, lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi) or math.isinf(lo) or math.isinf(hi):
            raise ValueError(f"interval bounds must be finite: [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"inverted interval: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True, eq=False, init=False)
class Box:
    """Axis-aligned box over the network inputs: one read-only float64
    array `ends`, the lower ends over the upper ends, finite, with
    lo <= hi in every dimension. `lo` and `hi` are views of it.

    The constructor checks a single box, given its (d,) bounds, and makes
    a (2, d) `ends`. `Box.stack` makes a stack of B boxes, whose `ends` is
    (B, 2, d) and which the analysis evaluates together. `len()` is d
    either way.
    """

    ends: np.ndarray

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError(f"box bounds must be 1-d and of one shape: {lo.shape} vs {hi.shape}")
        # a loop over the few inputs of a box beats numpy's reductions
        for j, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            if not -math.inf < a <= b < math.inf:
                raise ValueError(f"box bounds must be finite with lo <= hi: dim {j} is [{a}, {b}]")
        ends = np.stack((lo, hi))
        ends.setflags(write=False)
        object.__setattr__(self, "ends", ends)

    @classmethod
    def stack(cls, ends: np.ndarray) -> "Box":
        """The stack of the boxes whose ends are the (2, d) rows of the
        (B, 2, d) array `ends`, which it makes read-only. The rows must lie
        inside boxes already checked: they get none of the constructor's
        checks. A (2, d) `ends` makes a single box."""
        ends.setflags(write=False)
        box = object.__new__(cls)
        object.__setattr__(box, "ends", ends)
        return box

    def unstack(self) -> list:
        """The single boxes of a stack, as read-only views of its rows."""
        return [Box.stack(e) for e in self.ends]

    def take(self, rows) -> "Box":
        """The stack of the given rows."""
        return Box.stack(self.ends[rows])

    @property
    def lo(self) -> np.ndarray:
        return self.ends[..., 0, :]

    @property
    def hi(self) -> np.ndarray:
        return self.ends[..., 1, :]

    @property
    def dims(self) -> tuple:
        """One Interval per input."""
        return tuple(Interval(a, b) for a, b in zip(*self.ends.tolist()))

    def __len__(self):
        return self.ends.shape[-1]

    def midpoint(self) -> np.ndarray:
        return midpoint(self.lo, self.hi)

    def widths(self) -> np.ndarray:
        """hi - lo, rounded up by one ULP where positive, so a width never
        understates; inf where it exceeds the float range."""
        w = self.hi - self.lo
        return np.nextafter(w, np.inf, out=w, where=w > 0.0)

    def __repr__(self):
        return f"Box({self.lo.tolist()}, {self.hi.tolist()})"


def midpoint(lo, hi):
    """lo + (hi - lo)/2 entrywise, and lo/2 + hi/2 where hi - lo overflows,
    so the midpoint of any finite interval is finite and inside it. (Run
    under np.errstate(over="ignore") to silence the overflow warning.)"""
    w = hi - lo
    mid = lo + w / 2.0
    wide = np.isinf(w)
    if np.count_nonzero(wide):
        mid = np.where(wide, lo / 2.0 + hi / 2.0, mid)
    return mid


def affine_rows(rows, pos, neg, b) -> np.ndarray:
    """The lower rows over the upper rows, (..., 2, n, k), mapped through
    W x + b, with pos and neg the positive and negative parts of W and b
    added to the last column: the lower rows become pos @ low + neg @ up
    and the upper rows pos @ up + neg @ low, each product of one shape, so
    rows that coincide keep coinciding. Nothing is rounded.

    The products are taken column by column, low.T @ pos.T and so on, so
    the result is stored coefficient-major: it is the (..., 2, n, k) view
    of a contiguous (..., 2, k, n) array, whose units are contiguous.
    """
    cols = rows.swapaxes(-1, -2)
    out = cols @ pos.T + cols[..., ::-1, :, :] @ neg.T
    out[..., -1, :] += b
    return out.swapaxes(-1, -2)


def matvec_bounds(split, b, ends):
    """Vectorized interval W @ [lo, hi] + b, on and to (..., 2, n) arrays
    of the lower ends over the upper ends.

    Row i contains {sum_j W[i,j] x_j + b[i] : x_j in [lo_j, hi_j]},
    outward-rounded once per output entry. `split` is (W+, W-), the
    positive and negative parts of W. `ends` is (2, m) or a (B, 2, m)
    stack; each box of a stack gets the bits it would get alone.
    """
    b = np.asarray(b, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    n, m = split[0].shape
    if ends.shape[-2:] != (2, m):
        raise ValueError(f"shape mismatch: W has {m} cols, bounds are {ends.shape}")
    if n != b.shape[0]:
        raise ValueError(f"shape mismatch: W has {n} rows, bias has {b.shape[0]}")
    out = affine_rows(ends[..., np.newaxis], *split, b)[..., 0]
    round_out(out[..., 0, :], out[..., 1, :])
    _check_overflow(out)
    return out


def iv_bisect(x: Box, j):
    """Split dimension j at its midpoint into two boxes covering x.

    For a (B, d) stack, j holds one dimension per box and the halves are
    stacks too.
    """
    j = np.asarray(j)
    d = len(x)
    if j.shape != x.ends.shape[:-2]:
        raise ValueError(f"need one split dimension per box, got shape {j.shape}")
    if ((j < 0) | (j >= d)).any():
        raise IndexError(f"dimension {j} out of range for box of size {d}")
    at = (np.arange(len(j)), j) if j.ndim else (j,)
    lo, hi = x.lo[at], x.hi[at]
    if (hi <= lo).any():
        raise UnsplittableError(f"unsplittable: dimension {j} has zero width")
    mid = midpoint(lo, hi)
    left, right = x.ends.copy(), x.ends.copy()
    left[..., 1, :][at] = right[..., 0, :][at] = mid
    return Box.stack(left), Box.stack(right)
