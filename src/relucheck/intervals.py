"""Outward-rounded interval arithmetic primitives.

Every primitive returns bounds that contain the exact real result: lower
bounds are nudged toward -inf and upper bounds toward +inf by one ULP
(per the active rounding policy), instead of switching FPU rounding modes.
This keeps the kernel portable and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Interval",
    "Box",
    "RoundingPolicy",
    "IntervalOverflowError",
    "UnsplittableError",
    "iv_bisect",
    "matvec_bounds",
    "midpoint",
    "round_out",
]


class IntervalOverflowError(ArithmeticError):
    """Raised when an interval bound overflows to +-inf."""


class UnsplittableError(ValueError):
    """Raised when asked to bisect a zero-width dimension."""


@dataclass(frozen=True)
class RoundingPolicy:
    """How bounds are widened after each primitive operation.

    mode "ulp" nudges lo down / hi up by one ULP; "none" leaves results as
    computed (useful only for exactly-representable test data).
    """

    mode: str = "ulp"  # "ulp" | "none"
    precision: int = 64  # 64 | 32

    def __post_init__(self):
        if self.mode not in ("ulp", "none"):
            raise ValueError(f"unknown rounding mode {self.mode!r}")
        if self.precision not in (32, 64):
            raise ValueError(f"unsupported precision {self.precision}")

    @property
    def dtype(self):
        return np.float32 if self.precision == 32 else np.float64


DEFAULT_POLICY = RoundingPolicy()


def round_out(lo, hi, policy: RoundingPolicy = DEFAULT_POLICY):
    """Nudge (lo, hi) outward per policy. Works on scalars and arrays."""
    if policy.mode == "none":
        return lo, hi
    dt = policy.dtype
    lo = np.nextafter(np.asarray(lo, dtype=dt), dt(-np.inf))
    hi = np.nextafter(np.asarray(hi, dtype=dt), dt(np.inf))
    if np.ndim(lo) == 0:
        return float(lo), float(hi)
    return np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)


def _check_overflow(*values):
    """Raise IntervalOverflowError unless every entry is finite."""
    for v in values:
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

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack

    def subset_of(self, other: "Interval", slack: float = 0.0) -> bool:
        return other.lo - slack <= self.lo and self.hi <= other.hi + slack

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box over the network inputs: read-only float64 arrays
    `lo` and `hi`, finite, with lo <= hi in every dimension.

    The constructor checks a single box, with (d,) arrays. `Box.stack`
    builds a stack of B boxes, with (B, d) arrays, which the analysis
    evaluates together. `len()` is d either way.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lo, dtype=np.float64)
        hi = np.array(self.hi, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError(f"box bounds must be 1-d and of one shape: {lo.shape} vs {hi.shape}")
        # a loop over the few inputs of a box beats numpy's reductions
        for j, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            if not -math.inf < a <= b < math.inf:
                raise ValueError(f"box bounds must be finite with lo <= hi: dim {j} is [{a}, {b}]")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def from_arrays(cls, lo, hi) -> "Box":
        return cls(lo, hi)

    @classmethod
    def stack(cls, boxes) -> "Box":
        """One (B, d) box holding the given single boxes as its rows."""
        return _sub_box(
            _read_only(np.array([b.lo for b in boxes])), _read_only(np.array([b.hi for b in boxes]))
        )

    def unstack(self) -> list:
        """The single boxes of a stack, as read-only views of its rows."""
        return [_sub_box(a, b) for a, b in zip(self.lo, self.hi)]

    def take(self, rows) -> "Box":
        """The stack of the given rows."""
        return _sub_box(_read_only(self.lo[rows]), _read_only(self.hi[rows]))

    @property
    def dims(self) -> tuple:
        """One Interval per input."""
        return tuple(Interval(a, b) for a, b in zip(self.lo.tolist(), self.hi.tolist()))

    def __len__(self):
        return self.lo.shape[-1]

    def midpoint(self) -> np.ndarray:
        return midpoint(self.lo, self.hi)

    def widths(self) -> np.ndarray:
        """hi - lo, rounded up by one ULP where positive, so a width never
        understates; inf where it exceeds the float range."""
        w = self.hi - self.lo
        return np.nextafter(w, np.inf, out=w, where=w > 0.0)

    def __repr__(self):
        return "Box(" + ", ".join(repr(d) for d in self.dims) + ")"


def _sub_box(lo: np.ndarray, hi: np.ndarray) -> Box:
    """The Box of read-only bounds that lie inside boxes already checked;
    they need none of the constructor's checks."""
    box = object.__new__(Box)
    object.__setattr__(box, "lo", lo)
    object.__setattr__(box, "hi", hi)
    return box


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def midpoint(lo, hi):
    """lo + (hi - lo)/2 entrywise, and lo/2 + hi/2 where hi - lo overflows,
    so the midpoint of any finite interval is finite and inside it. (Run
    under np.errstate(over="ignore") to silence the overflow warning.)"""
    w = hi - lo
    mid = lo + w / 2.0
    wide = np.isinf(w)
    if wide.any():
        mid = np.where(wide, lo / 2.0 + hi / 2.0, mid)
    return mid


def matvec_bounds(W, b, lo, hi, policy: RoundingPolicy = DEFAULT_POLICY, split=None):
    """Vectorized interval W @ [lo, hi] + b. Returns (lo, hi) arrays.

    Row i contains {sum_j W[i,j] x_j + b[i] : x_j in [lo_j, hi_j]},
    outward-rounded once per output entry. `lo` and `hi` are (m,) or a
    (B, m) stack; each box of a stack gets the bits it would get alone.
    `split` is (W+, W-), the positive and negative parts of W, passed in
    by callers that reuse them.
    """
    W = np.asarray(W, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if W.shape[1] != lo.shape[-1]:
        raise ValueError(f"shape mismatch: W has {W.shape[1]} cols, vector has {lo.shape[-1]}")
    if W.shape[0] != b.shape[0]:
        raise ValueError(f"shape mismatch: W has {W.shape[0]} rows, bias has {b.shape[0]}")
    pos, neg = split if split is not None else (np.maximum(W, 0.0), np.minimum(W, 0.0))
    # W+ lo + W- hi and W+ hi + W- lo, each product of one shape
    ends = np.stack((lo, hi), axis=-2)[..., np.newaxis]
    ends = (pos @ ends + neg @ ends[..., ::-1, :, :])[..., 0] + b
    out_lo, out_hi = round_out(ends[..., 0, :], ends[..., 1, :], policy)
    _check_overflow(out_lo, out_hi)
    return np.atleast_1d(out_lo), np.atleast_1d(out_hi)


def iv_bisect(x: Box, j):
    """Split dimension j at its midpoint into two boxes covering x.

    For a (B, d) stack, j holds one dimension per box and the halves are
    stacks too.
    """
    j = np.asarray(j)
    d = len(x)
    if j.shape != x.lo.shape[:-1]:
        raise ValueError(f"need one split dimension per box, got shape {j.shape}")
    if ((j < 0) | (j >= d)).any():
        raise IndexError(f"dimension {j} out of range for box of size {d}")
    at = (np.arange(len(j)), j) if j.ndim else (j,)
    lo, hi = x.lo[at], x.hi[at]
    if (hi <= lo).any():
        raise UnsplittableError(f"unsplittable: dimension {j} has zero width")
    mid = midpoint(lo, hi)
    left_hi, right_lo = x.hi.copy(), x.lo.copy()
    left_hi[at] = right_lo[at] = mid
    return _sub_box(x.lo, _read_only(left_hi)), _sub_box(_read_only(right_lo), x.hi)
