import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relucheck.intervals import (
    Box,
    Interval,
    IntervalOverflowError,
    RoundingPolicy,
    UnsplittableError,
    iv_bisect,
    matvec_bounds,
)

EXACT = RoundingPolicy(mode="none")

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)


@st.composite
def intervals(draw):
    a = draw(finite)
    b = draw(finite)
    return Interval(min(a, b), max(a, b))


def add(a: Interval, b: Interval, policy: RoundingPolicy = RoundingPolicy()) -> Interval:
    """a + b as the 1x2 interval product [1, 1] @ (a, b)."""
    lo, hi = matvec_bounds([[1.0, 1.0]], [0.0], [a.lo, b.lo], [a.hi, b.hi], policy)
    return Interval(lo[0], hi[0])


def scale(c: float, a: Interval, policy: RoundingPolicy = RoundingPolicy()) -> Interval:
    """c * a as the 1x1 interval product [[c]] @ a."""
    lo, hi = matvec_bounds([[c]], [0.0], [a.lo], [a.hi], policy)
    return Interval(lo[0], hi[0])


def test_interval_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, float("inf"))


def test_add_exact_cases():
    assert add(Interval(1, 2), Interval(3, 4), EXACT) == Interval(4, 6)
    assert add(Interval(0, 0), Interval(-5, 7), EXACT) == Interval(-5, 7)


def test_add_outward_rounding_contains_extended_precision_sum():
    a = Interval(0.1, 0.1)
    b = Interval(0.2, 0.2)
    r = add(a, b)
    exact = Fraction(0.1) + Fraction(0.2)
    assert Fraction(r.lo) <= exact <= Fraction(r.hi)
    assert r.hi - r.lo <= 2 * math.ulp(0.3)


def test_add_overflow():
    big = Interval(1e308, 1.5e308)
    # called outside the engine's workers, numpy would also warn about it
    with np.errstate(over="ignore"), pytest.raises(IntervalOverflowError):
        add(big, big)


def test_scale_cases():
    assert scale(2.0, Interval(1, 2), EXACT) == Interval(2, 4)
    assert scale(-1.0, Interval(1, 2), EXACT) == Interval(-2, -1)
    assert scale(0.0, Interval(-9, 9), EXACT) == Interval(0, 0)
    # outward rounding widens an exact zero by one subnormal each way
    r = scale(0.0, Interval(-9, 9))
    assert r.contains(0.0) and r.hi - r.lo <= 2 * math.ulp(0.0)


def test_matvec_demo_hidden_layer():
    lo, hi = matvec_bounds([[2, 3], [1, 1]], [0, 0], [4, 1], [6, 5], EXACT)
    assert (lo.tolist(), hi.tolist()) == ([11, 5], [27, 11])
    lo2, hi2 = matvec_bounds([[1, -1]], [0], lo, hi, EXACT)
    assert (lo2.tolist(), hi2.tolist()) == ([0], [22])


def test_matvec_identity():
    lo, hi = matvec_bounds(np.eye(2), [0, 0], [-1, 0], [2, 3], EXACT)
    assert (lo.tolist(), hi.tolist()) == ([-1, 0], [2, 3])


def test_matvec_shape_mismatch():
    with pytest.raises(ValueError):
        matvec_bounds([[1, 2, 3]], [0], [0], [1])


def test_box_rejects_bad_bounds():
    for lo, hi in (([2.0], [1.0]), ([float("nan")], [1.0]), ([0.0], [float("inf")]),
                   ([0.0, 0.0], [1.0]), ([[0.0]], [[1.0]])):
        with pytest.raises(ValueError):
            Box.from_arrays(lo, hi)


def test_box_arrays_are_read_only_copies():
    lo = np.array([0.0, 1.0])
    box = Box.from_arrays(lo, [1.0, 2.0])
    lo[0] = -5.0
    assert box.lo.tolist() == [0.0, 1.0] and box.lo.dtype == np.float64
    with pytest.raises(ValueError):
        box.hi[0] = 3.0
    assert box.dims == (Interval(0, 1), Interval(1, 2)) and len(box) == 2


def test_bisect_demo_example():
    x = Box.from_arrays([4, 1], [6, 5])
    a, b = iv_bisect(x, 1)
    assert (a.lo.tolist(), a.hi.tolist()) == ([4, 1], [6, 3])
    assert (b.lo.tolist(), b.hi.tolist()) == ([4, 3], [6, 5])
    assert (x.lo.tolist(), x.hi.tolist()) == ([4, 1], [6, 5])


def test_bisect_unit():
    a, b = iv_bisect(Box.from_arrays([0.0], [1.0]), 0)
    assert (a.lo[0], a.hi[0]) == (0, 0.5) and (b.lo[0], b.hi[0]) == (0.5, 1)
    with pytest.raises(ValueError):
        a.hi[0] = 2.0


def test_bisect_point_errors():
    with pytest.raises(UnsplittableError):
        iv_bisect(Box.from_arrays([1.0], [1.0]), 0)


def test_widths():
    w = Box.from_arrays([1, 2], [4, 2]).widths()
    assert w.tolist() == [math.nextafter(3.0, math.inf), 0.0]
    w = Box.from_arrays([0, 0], [1, 3]).widths()
    assert w[1] == pytest.approx(3.0) and int(np.argmax(w)) == 1


def test_box_max_width_tie_breaks_low():
    assert int(np.argmax(Box.from_arrays([0, 0], [2, 2]).widths())) == 0

@given(intervals(), intervals(), finite, finite)
@settings(max_examples=300)
def test_containment_soundness_fuzz(a, b, ta, tb):
    """Any concrete selection from the operands lands in the result."""
    xa = a.lo + (a.hi - a.lo) * (abs(ta) % 1.0 if ta else 0.0)
    xb = b.lo + (b.hi - b.lo) * (abs(tb) % 1.0 if tb else 0.0)
    r = add(a, b)
    exact = Fraction(xa) + Fraction(xb)
    assert Fraction(r.lo) <= exact <= Fraction(r.hi)


@given(intervals(), st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=300)
def test_scale_containment_fuzz(a, c):
    r = scale(c, a)
    for x in (a.lo, a.hi, a.lo + (a.hi - a.lo) / 2.0):
        assert Fraction(r.lo) <= Fraction(c) * Fraction(x) <= Fraction(r.hi)


@given(intervals(), intervals())
@settings(max_examples=200)
def test_inclusion_isotonicity(a, b):
    """Shrinking operands never grows the result (up to 2 ULP per bound)."""
    mid = a.lo + (a.hi - a.lo) / 2.0
    a2 = Interval(a.lo + (mid - a.lo) / 2, a.hi - (a.hi - mid) / 2)
    r, r2 = add(a, b), add(a2, b)
    slack = 2 * math.ulp(max(abs(r.lo), abs(r.hi), 1.0))
    assert r2.subset_of(r, slack)


def test_fp32_policy_rounds_in_float32():
    p32 = RoundingPolicy(precision=32)
    r = add(Interval(0.1, 0.1), Interval(0.2, 0.2), p32)
    exact = Fraction(0.1) + Fraction(0.2)
    assert Fraction(r.lo) <= exact <= Fraction(r.hi)
    assert r.hi - r.lo >= float(np.spacing(np.float32(0.3)))
