"""Outward-rounded interval arithmetic primitives.

Every primitive returns bounds that contain the exact real result: lower
bounds are nudged toward -inf and upper bounds toward +inf by one ULP
(per the active rounding policy), instead of switching FPU rounding modes.
This keeps the kernel portable and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Interval",
    "Box",
    "RoundingPolicy",
    "IntervalOverflowError",
    "UnsplittableError",
    "iv_add",
    "iv_scale",
    "iv_relu",
    "iv_matvec",
    "iv_bisect",
    "iv_width",
    "box_max_width",
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
    """Raise IntervalOverflowError unless every entry is finite; the values
    are scalars or arrays of one shape."""
    if not np.isfinite(values).all():
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

    @property
    def width(self) -> float:
        return iv_width(self)

    @property
    def mid(self) -> float:
        return self.lo + (self.hi - self.lo) / 2.0

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack

    def subset_of(self, other: "Interval", slack: float = 0.0) -> bool:
        return other.lo - slack <= self.lo and self.hi <= other.hi + slack

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: one interval per network input."""

    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        for d in self.dims:
            if not isinstance(d, Interval):
                raise TypeError("Box dims must be Interval values")

    @classmethod
    def from_arrays(cls, lo, hi) -> "Box":
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        return cls(tuple(Interval(a, b) for a, b in zip(lo, hi)))

    @classmethod
    def from_point(cls, x) -> "Box":
        return cls.from_arrays(x, x)

    def __len__(self):
        return len(self.dims)

    def __getitem__(self, j) -> Interval:
        return self.dims[j]

    def lo_array(self) -> np.ndarray:
        return np.array([d.lo for d in self.dims], dtype=np.float64)

    def hi_array(self) -> np.ndarray:
        return np.array([d.hi for d in self.dims], dtype=np.float64)

    def midpoint(self) -> np.ndarray:
        return np.array([d.mid for d in self.dims], dtype=np.float64)

    def widths(self) -> np.ndarray:
        return np.array([iv_width(d) for d in self.dims], dtype=np.float64)

    def volume(self) -> float:
        return float(np.prod(self.widths()))

    def contains_point(self, x, slack: float = 0.0) -> bool:
        x = np.asarray(x, dtype=np.float64)
        return all(d.contains(v, slack) for d, v in zip(self.dims, x))

    def replace(self, j: int, iv: Interval) -> "Box":
        dims = list(self.dims)
        dims[j] = iv
        return Box(tuple(dims))

    def __repr__(self):
        return "Box(" + ", ".join(repr(d) for d in self.dims) + ")"


def iv_add(a: Interval, b: Interval, policy: RoundingPolicy = DEFAULT_POLICY) -> Interval:
    """Interval sum, outward-rounded."""
    lo, hi = round_out(a.lo + b.lo, a.hi + b.hi, policy)
    _check_overflow(lo, hi)
    return Interval(lo, hi)


def iv_scale(c: float, a: Interval, policy: RoundingPolicy = DEFAULT_POLICY) -> Interval:
    """Scalar multiple c * a; bounds flip when c < 0."""
    if not math.isfinite(c):
        raise ValueError("scale factor must be finite")
    if c >= 0:
        lo, hi = c * a.lo, c * a.hi
    else:
        lo, hi = c * a.hi, c * a.lo
    if c == 0.0:
        return Interval(0.0, 0.0)
    lo, hi = round_out(lo, hi, policy)
    _check_overflow(lo, hi)
    return Interval(lo, hi)


def iv_relu(a: Interval) -> Interval:
    """[max(0, lo), max(0, hi)] -- exact, no rounding needed."""
    return Interval(max(0.0, a.lo), max(0.0, a.hi))


def matvec_bounds(W, b, lo, hi, policy: RoundingPolicy = DEFAULT_POLICY):
    """Vectorized interval W @ [lo, hi] + b. Returns (lo, hi) arrays.

    Row i contains {sum_j W[i,j] x_j + b[i] : x_j in [lo_j, hi_j]},
    outward-rounded once per output entry.
    """
    W = np.asarray(W, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if W.shape[1] != lo.shape[0]:
        raise ValueError(f"shape mismatch: W has {W.shape[1]} cols, vector has {lo.shape[0]}")
    if W.shape[0] != b.shape[0]:
        raise ValueError(f"shape mismatch: W has {W.shape[0]} rows, bias has {b.shape[0]}")
    pos = np.maximum(W, 0.0)
    neg = np.minimum(W, 0.0)
    out_lo = pos @ lo + neg @ hi + b
    out_hi = pos @ hi + neg @ lo + b
    out_lo, out_hi = round_out(out_lo, out_hi, policy)
    _check_overflow(out_lo, out_hi)
    return np.atleast_1d(out_lo), np.atleast_1d(out_hi)


def iv_matvec(W, b, v, policy: RoundingPolicy = DEFAULT_POLICY):
    """Interval matrix-vector product over a list of Intervals."""
    lo = np.array([iv.lo for iv in v], dtype=np.float64)
    hi = np.array([iv.hi for iv in v], dtype=np.float64)
    out_lo, out_hi = matvec_bounds(W, b, lo, hi, policy)
    return [Interval(a, c) for a, c in zip(out_lo, out_hi)]


def iv_bisect(x: Box, j: int):
    """Split dimension j at its midpoint into two boxes covering x."""
    if not 0 <= j < len(x):
        raise IndexError(f"dimension {j} out of range for box of size {len(x)}")
    d = x[j]
    if d.hi - d.lo <= 0.0:
        raise UnsplittableError(f"unsplittable: dimension {j} has zero width")
    mid = d.mid
    return x.replace(j, Interval(d.lo, mid)), x.replace(j, Interval(mid, d.hi))


def iv_width(a: Interval, policy: RoundingPolicy = DEFAULT_POLICY) -> float:
    """hi - lo, rounded up so the reported width never understates."""
    w = a.hi - a.lo
    if policy.mode == "ulp" and w > 0.0:
        w = math.nextafter(w, math.inf)
    return w


def box_max_width(x: Box):
    """(max width, index of widest dim); ties break to the lowest index."""
    widths = x.widths()
    j = int(np.argmax(widths))
    return float(widths[j]), j
