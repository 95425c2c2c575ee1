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
    UnsplittableError,
    iv_bisect,
    matvec_bounds,
)

from conftest import row_error, subset_of
from test_symbolic import split

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)


@st.composite
def intervals(draw):
    a = draw(finite)
    b = draw(finite)
    return Interval(min(a, b), max(a, b))


def matvec(W, b, ends):
    """`matvec_bounds` of W @ [lo, hi] + b, with the documented error term
    of its one layer, and that term."""
    W, b, ends = (np.asarray(v, dtype=float) for v in (W, b, ends))
    err = row_error(np.column_stack((W, b)), Box(*ends), naive=True)
    return matvec_bounds(split(W), b, ends, err), err


def add(a: Interval, b: Interval) -> Interval:
    """a + b as the 1x2 interval product [1, 1] @ (a, b)."""
    (lo, hi), _ = matvec([[1.0, 1.0]], [0.0], [[a.lo, b.lo], [a.hi, b.hi]])
    return Interval(lo[0], hi[0])


def scale(c: float, a: Interval) -> Interval:
    """c * a as the 1x1 interval product [[c]] @ a."""
    (lo, hi), _ = matvec([[c]], [0.0], [[a.lo], [a.hi]])
    return Interval(lo[0], hi[0])


def moved_out(lo, hi, W, b, ends):
    """The bounds of an exactly computed [lo, hi], the product W @ ends + b,
    moved outward by its documented error term."""
    _, err = matvec(W, b, ends)
    return np.subtract(lo, err), np.add(hi, err)


def moved_out_interval(lo, hi, W, b, ends) -> Interval:
    """`moved_out` of a product with one row, as an Interval."""
    return Interval(*(v.item() for v in moved_out(lo, hi, W, b, ends)))


def test_interval_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, float("inf"))


def test_add_exact_cases():
    ones = ([[1.0, 1.0]], [0.0])
    assert add(Interval(1, 2), Interval(3, 4)) == moved_out_interval(4.0, 6.0, *ones, [[1, 3], [2, 4]])
    assert add(Interval(0, 0), Interval(-5, 7)) == moved_out_interval(-5.0, 7.0, *ones, [[0, -5], [0, 7]])


def test_add_outward_rounding_contains_extended_precision_sum():
    a = Interval(0.1, 0.1)
    b = Interval(0.2, 0.2)
    r = add(a, b)
    exact = Fraction(0.1) + Fraction(0.2)
    assert Fraction(r.lo) <= exact <= Fraction(r.hi)
    # the sum rounds once, well within the term on each side
    (err,) = matvec([[1.0, 1.0]], [0.0], [[0.1, 0.2], [0.1, 0.2]])[1]
    assert r.hi - r.lo <= 2 * err + 2 * math.ulp(0.3)


def test_add_overflow():
    big = Interval(1e308, 1.5e308)
    # called outside the engine's workers, numpy would also warn about it,
    # and about the infinite term moving the infinite sum
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntervalOverflowError):
        add(big, big)


def test_scale_cases():
    assert scale(2.0, Interval(1, 2)) == moved_out_interval(2.0, 4.0, [[2.0]], [0.0], [[1], [2]])
    assert scale(-1.0, Interval(1, 2)) == moved_out_interval(-2.0, -1.0, [[-1.0]], [0.0], [[1], [2]])
    assert scale(0.0, Interval(-9, 9)) == moved_out_interval(0.0, 0.0, [[0.0]], [0.0], [[-9], [9]])
    # the term of an exact zero is its underflow allowance alone, which is
    # subnormal
    r = scale(0.0, Interval(-9, 9))
    assert r.lo == -r.hi and 0.0 < r.hi < np.finfo(np.float64).tiny


def test_matvec_demo_hidden_layer():
    hidden = ([[2, 3], [1, 1]], [0, 0], [[4, 1], [6, 5]])
    (lo, hi), _ = matvec(*hidden)
    np.testing.assert_array_equal((lo, hi), moved_out([11.0, 5.0], [27.0, 11.0], *hidden))
    # the output layer over the exact hidden bounds [11, 27] x [5, 11]
    out = ([[1, -1]], [0], [[11, 5], [27, 11]])
    (lo2, hi2), _ = matvec(*out)
    np.testing.assert_array_equal((lo2, hi2), moved_out([0.0], [22.0], *out))
    # and over the moved ones, which it contains
    (lo3, hi3), err = matvec([[1, -1]], [0], [lo, hi])
    assert lo3[0] < lo2[0] and hi2[0] < hi3[0] and hi3[0] - lo3[0] <= 22 + 4 * err[0] + 8 * math.ulp(22.0)


def test_matvec_identity():
    identity = (np.eye(2), [0, 0], [[-1, 0], [2, 3]])
    (lo, hi), _ = matvec(*identity)
    np.testing.assert_array_equal((lo, hi), moved_out([-1.0, 0.0], [2.0, 3.0], *identity))


def test_matvec_shape_mismatch():
    with pytest.raises(ValueError, match="cols"):
        matvec_bounds(split([[1, 2, 3]]), [0], [[0], [1]], np.zeros(1))
    with pytest.raises(ValueError, match="bias"):
        matvec_bounds(split([[1, 2]]), [0, 0], [[0, 0], [1, 1]], np.zeros(1))


def test_box_rejects_bad_bounds():
    for lo, hi in (([2.0], [1.0]), ([float("nan")], [1.0]), ([0.0], [float("inf")]),
                   ([0.0, 0.0], [1.0]), ([[0.0]], [[1.0]])):
        with pytest.raises(ValueError):
            Box(lo, hi)


def test_box_arrays_are_read_only_copies():
    lo = np.array([0.0, 1.0])
    box = Box(lo, [1.0, 2.0])
    lo[0] = -5.0
    assert box.lo.tolist() == [0.0, 1.0] and box.lo.dtype == np.float64
    with pytest.raises(ValueError):
        box.hi[0] = 3.0
    assert box.dims == (Interval(0, 1), Interval(1, 2)) and len(box) == 2
    # lo and hi are views of the one (2, d) array of the box's ends
    assert box.ends.tolist() == [[0.0, 1.0], [1.0, 2.0]] and not box.ends.flags.writeable
    assert np.shares_memory(box.lo, box.ends) and np.shares_memory(box.hi, box.ends)


def test_bisect_demo_example():
    x = Box([4, 1], [6, 5])
    a, b = iv_bisect(x, 1)
    assert (a.lo.tolist(), a.hi.tolist()) == ([4, 1], [6, 3])
    assert (b.lo.tolist(), b.hi.tolist()) == ([4, 3], [6, 5])
    assert (x.lo.tolist(), x.hi.tolist()) == ([4, 1], [6, 5])


def test_bisect_unit():
    a, b = iv_bisect(Box([0.0], [1.0]), 0)
    assert (a.lo[0], a.hi[0]) == (0, 0.5) and (b.lo[0], b.hi[0]) == (0.5, 1)
    with pytest.raises(ValueError):
        a.hi[0] = 2.0


def test_bisect_point_errors():
    with pytest.raises(UnsplittableError):
        iv_bisect(Box([1.0], [1.0]), 0)
    # a stack of two boxes needs two split dims
    with pytest.raises(ValueError, match="one split dimension per box"):
        iv_bisect(Box.stack(np.array([[[0.0], [1.0]], [[2.0], [3.0]]])), [0])
    with pytest.raises(IndexError):
        iv_bisect(Box([0.0], [1.0]), 1)


def test_box_repr_gives_its_lower_then_its_upper_ends():
    assert repr(Box([4, 1], [6, 5])) == "Box([4.0, 1.0], [6.0, 5.0])"
    # a stack of n boxes prints its (n, d) lower and upper ends
    for n in (1, 2, 3):
        lo = [[4.0 + k, 1.0] for k in range(n)]
        hi = [[6.0 + k, 5.0] for k in range(n)]
        assert repr(Box.stack(np.stack((lo, hi), axis=1))) == f"Box({lo}, {hi})"


def test_widths():
    w = Box([1, 2], [4, 2]).widths()
    assert w.tolist() == [math.nextafter(3.0, math.inf), 0.0]
    w = Box([0, 0], [1, 3]).widths()
    assert w[1] == pytest.approx(3.0) and int(np.argmax(w)) == 1


def test_box_max_width_tie_breaks_low():
    assert int(np.argmax(Box([0, 0], [2, 2]).widths())) == 0

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
    assert subset_of(r2, r, slack)

