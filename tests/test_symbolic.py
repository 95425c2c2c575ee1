from fractions import Fraction

import numpy as np
import pytest

from relucheck.intervals import Box, IntervalOverflowError, affine_rows
from relucheck.symbolic import (
    ReluState,
    bounds_of_rows,
    box_operand,
    expr_bounds,
    relu_rows,
)

from conftest import random_box, row_error


def box(lo, hi):
    return Box(lo, hi)


def bounds(coeffs, const, b):
    """Concrete range of the single row coeffs . x + const over box b, and
    the row's documented error term."""
    rows = np.array([list(coeffs) + [const]], dtype=float)
    err = row_error(rows, b)
    lo, hi = expr_bounds(rows, box_operand(b), err)
    return lo[0], hi[0], err[0]


def rounded_out(got, want):
    """Whether the bounds `got` of a row whose evaluation over the box is
    exact in floats are its exact range `want` moved outward by its error
    term, which is positive."""
    (lo, hi, err), (want_lo, want_hi) = got, want
    return err > 0.0 and (lo, hi) == (want_lo - err, want_hi + err) and lo < want_lo and want_hi < hi


def sym_rows(low_c, low_k, up_c, up_k):
    """Rows low_c @ x + low_k (lower) and up_c @ x + up_k (upper)."""
    low = np.column_stack((low_c, low_k))
    up = np.column_stack((up_c, up_k))
    return np.stack((low, up)).astype(float)


def exact_rows(coeffs, consts):
    """Rows whose lower and upper expressions coincide."""
    return sym_rows(coeffs, consts, coeffs, consts)


def split(W):
    W = np.array(W, dtype=float)
    return np.maximum(W, 0.0), np.minimum(W, 0.0)


def relu(rows, b):
    mask = relu_rows(rows, *bounds_of_rows(rows, box_operand(b), row_error(rows, b)))
    return rows, mask


def test_expr_bounds_demo_hidden_neuron():
    assert rounded_out(bounds([2.0, 3.0], 0.0, box([4, 1], [6, 5])), (11.0, 27.0))


def test_expr_bounds_constant():
    assert rounded_out(bounds([0.0, 0.0], 7.0, box([0, 0], [1, 1])), (7.0, 7.0))


def test_expr_bounds_sign_split():
    assert rounded_out(bounds([1.0], -5.0, box([4], [6])), (-1.0, 1.0))


def test_expr_bounds_dimension_mismatch():
    with pytest.raises(ValueError):
        bounds([1.0, 2.0], 0.0, box([0], [1]))


def test_expr_bounds_outward_contains_true_range():
    lo, hi, _ = bounds([0.1, -0.2], 0.3, box([-1.7, 0.3], [2.9, 1.1]))
    lo_true = 0.1 * -1.7 - 0.2 * 1.1 + 0.3
    hi_true = 0.1 * 2.9 - 0.2 * 0.3 + 0.3
    assert lo <= lo_true and hi >= hi_true


def test_expr_bounds_rows_match_one_at_a_time():
    # a row's bounds do not depend on the rows bounded with it
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        b = random_box(rng, d)
        c = rng.normal(size=(9, d)) * 10.0 ** rng.uniform(-3, 3, size=(9, d))
        rows = np.column_stack((c, rng.normal(size=9)))
        err = row_error(rows, b)
        lo, hi = expr_bounds(rows, box_operand(b), err)
        for r in range(9):
            lo_r, hi_r = expr_bounds(rows[r : r + 1], box_operand(b), err[r : r + 1])
            assert lo[r] == lo_r[0] and hi[r] == hi_r[0]


def test_affine_sym_demo_output_layer():
    rows = exact_rows([[2.0, 3.0], [1.0, 1.0]], [0.0, 0.0])
    out = affine_rows(rows, *split([[1.0, -1.0]]), np.array([0.0]))
    np.testing.assert_array_equal(out[..., 0, :, :-1], [[1.0, 2.0]])
    np.testing.assert_array_equal(out[..., 1, :, :-1], [[1.0, 2.0]])
    np.testing.assert_array_equal(out[..., 0, :, -1], [0.0])
    np.testing.assert_array_equal(out[..., 1, :, -1], [0.0])


def test_affine_sym_identity():
    rows = exact_rows([[1.0, 0.0], [0.0, 2.0]], [0.5, -1.0])
    out = affine_rows(rows, *split(np.eye(2)), np.zeros(2))
    np.testing.assert_array_equal(out, rows)


def test_affine_sym_zero_row():
    out = affine_rows(exact_rows([[1.0]], [0.0]), *split([[0.0]]), np.array([0.0]))
    np.testing.assert_array_equal(out, np.zeros_like(out))


def test_affine_sym_mixed_signs_bounds_correct():
    # upper uses positive weights on upper rows and negative on lower
    rows = sym_rows(np.array([[1.0]]), np.array([0.0]), np.array([[1.0]]), np.array([1.0]))
    out = affine_rows(rows, *split([[-2.0]]), np.array([0.5]))
    np.testing.assert_array_equal(out[..., 1, :, :-1], [[-2.0]])
    np.testing.assert_array_equal(out[..., 1, :, -1], [0.5])
    np.testing.assert_array_equal(out[..., 0, :, :-1], [[-2.0]])
    np.testing.assert_array_equal(out[..., 0, :, -1], [-1.5])


def test_relu_sym_active():
    rows = exact_rows([[2.0, 3.0]], [0.0])
    out, mask = relu(exact_rows([[2.0, 3.0]], [0.0]), box([4, 1], [6, 5]))
    assert mask.dtype == np.int8 and mask.tolist() == [ReluState.ACTIVE]
    np.testing.assert_array_equal(out, rows)


def test_relu_sym_zero():
    out, mask = relu(exact_rows([[-1.0]], [0.0]), box([1], [2]))
    assert mask.tolist() == [ReluState.ZERO]
    np.testing.assert_array_equal(out, np.zeros_like(out))


def test_relu_sym_unstable_concretizes_upper():
    # x - 5 over [4,6]: upper's lower bound is -1 <= 0, so up becomes the
    # constant 1 (its upper bound, moved up by its error term) and low
    # drops to 0
    rows = exact_rows([[1.0]], [-5.0])
    (err,) = row_error(rows, box([4], [6]))
    out, mask = relu(rows, box([4], [6]))
    assert mask.tolist() == [ReluState.UNSTABLE]
    np.testing.assert_array_equal(out[..., 0, :, :-1], [[0.0]])
    np.testing.assert_array_equal(out[..., 0, :, -1], [0.0])
    np.testing.assert_array_equal(out[..., 1, :, :-1], [[0.0]])
    (up_hi,) = out[..., 1, :, -1]
    assert up_hi == 1.0 + err and 1.0 < up_hi


def test_relu_sym_unstable_keeps_symbolic_upper():
    # low can be negative while up stays positive over the whole box
    rows = sym_rows(np.array([[1.0]]), np.array([-5.0]), np.array([[1.0]]), np.array([1.0]))
    out, mask = relu(rows, box([4], [6]))
    assert mask.tolist() == [ReluState.UNSTABLE]
    np.testing.assert_array_equal(out[..., 0, :, :-1], [[0.0]])
    np.testing.assert_array_equal(out[..., 0, :, -1], [0.0])
    np.testing.assert_array_equal(out[..., 1, :, :-1], [[1.0]])
    np.testing.assert_array_equal(out[..., 1, :, -1], [1.0])


def _relu_unit_by_unit(rows, low_lo, up_lo, up_hi):
    """Reference for relu_rows: the ReLU step one unit at a time."""
    want = rows.copy()
    low, up = want
    states = []
    for i in range(len(up_hi)):
        if up_hi[i] <= 0.0:
            states.append(ReluState.ZERO)
            low[i], up[i] = 0.0, 0.0
        elif low_lo[i] >= 0.0:
            states.append(ReluState.ACTIVE)
        else:
            states.append(ReluState.UNSTABLE)
            low[i] = 0.0
            if up_lo[i] <= 0.0:
                up[i, :-1], up[i, -1] = 0.0, up_hi[i]
    return want, states


def test_relu_whole_layer_matches_unit_by_unit():
    rng = np.random.default_rng(13)
    for _ in range(50):
        d, n = int(rng.integers(1, 5)), int(rng.integers(1, 40))
        rows = sym_rows(*(rng.normal(size=s) for s in ((n, d), n, (n, d), n)))
        # bounds on a coarse grid, so that some sit exactly at zero
        low_lo, up_lo, up_hi = (rng.integers(-2, 3, n) * 0.5 for _ in range(3))
        want, states = _relu_unit_by_unit(rows, low_lo, up_lo, up_hi)
        mask = relu_rows(rows, np.stack((low_lo, up_lo)), np.stack((up_hi, up_hi)))
        assert mask.dtype == np.int8 and mask.tolist() == states
        np.testing.assert_array_equal(rows, want)


def test_bounds_of_rows_overflow_raises():
    rows = exact_rows([[1e308, 1e308]], [0.0])
    b = box([1, 1], [2, 2])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntervalOverflowError):
        bounds_of_rows(rows, box_operand(b), row_error(rows, b))


def test_sandwich_on_sampled_points():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        b = random_box(rng, d)
        c, k = rng.uniform(-2, 2, d), rng.uniform(-1, 1)
        out, _ = relu(exact_rows([c], [k]), b)
        pts = rng.uniform(b.lo, b.hi, size=(200, d))
        val = np.maximum(pts @ c + k, 0.0)
        (low,), (up,) = out
        assert np.all(pts @ low[:-1] + low[-1] <= val + 1e-12)
        assert np.all(pts @ up[:-1] + up[-1] >= val - 1e-12)


def test_point_box_bounds_are_tight():
    c, k = np.array([0.3, -0.7]), 0.11
    p = np.array([1.234, -5.678])
    lo, hi, err = bounds(c, k, Box(p, p))
    # the error term bounds the evaluation's own error, so each bound lies
    # within twice the term of the exact value
    v = sum(Fraction(a) * Fraction(b) for a, b in zip(c, p)) + Fraction(k)
    assert v - 2 * Fraction(err) <= Fraction(lo) <= v <= Fraction(hi) <= v + 2 * Fraction(err)
