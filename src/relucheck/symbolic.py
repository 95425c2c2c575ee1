"""Linear symbolic bounds kept as one row stack, and their concrete ranges.

A neuron's value over the input box is sandwiched between two linear
expressions in the d network inputs. A layer of n neurons keeps its
expressions as the rows of one (2, n, d+1) array: the n lower rows over
the n upper rows, each row its d coefficients followed by its constant. A
stack of B boxes has a (B, 2, n, d+1) array, and every function here
works on either shape. The rows are stored coefficient-major, as the
(..., 2, n, d+1) view of a contiguous (..., 2, d+1, n) array, so that the
passes over every unit of a layer read contiguous memory. Lower and upper
rows always go through products of one shape, so rows that coincide keep
coinciding. Affine layers map the rows through `intervals.affine_rows`;
ReLU keeps a unit's rows, zeroes them, or concretizes the upper row,
depending on the signs over the box. Rows and their evaluation are
rounded to nearest; a concrete bound is moved outward by the network's
rounding-error term for its layer (`network.ErrorBound`), which covers
both.
"""

from __future__ import annotations

import enum

import numpy as np

from .intervals import Box, _check_overflow

__all__ = [
    "ReluState",
    "box_operand",
    "expr_bounds",
    "bounds_of_rows",
    "relu_rows",
]


class ReluState(enum.IntEnum):
    """Activation state of a ReLU over the current box; the int8 code of
    a unit in a mask.

    The gradient interval of the unit is [0,0] for ZERO, [1,1] for ACTIVE
    and [0,1] for UNSTABLE.
    """

    ZERO = 0
    ACTIVE = 1
    UNSTABLE = 2


def box_operand(x: Box) -> np.ndarray:
    """The (..., 2(d+1), 2) matrix that bounds rows over a box or stack.

    Its rows are [lo, hi] per input and [1, 1], then [hi, lo] per input
    and [1, 1]. A row r = [c, k] (coefficients, constant) is bounded
    through [r+ | r-] @ operand: the columns give c+ lo + c- hi + k (its
    low end) and c+ hi + c- lo + k (its high end).
    """
    lo, hi = x.lo, x.hi
    lead, d = lo.shape[:-1], lo.shape[-1]
    op = np.empty(lead + (2, d + 1, 2))
    op[..., 0, :d, 0] = op[..., 1, :d, 1] = lo
    op[..., 0, :d, 1] = op[..., 1, :d, 0] = hi
    op[..., d, :] = 1.0
    return op.reshape(lead + (2 * d + 2, 2))


def _row_bounds(rows, operand, err):
    """Sound (lo, hi) of rows [c, k] (coefficients, constant), through the
    product of their sign split with the (broadcast) `box_operand`: a
    sign-split evaluation moved outward by `err`, which broadcasts with
    the result and bounds the float error of the rows and of their
    evaluation (`ErrorBound`)."""
    n = rows.shape[-1]
    # coefficient-major, as the rows are (`affine_rows`)
    split = np.empty(rows.shape[:-2] + (2 * n, rows.shape[-2])).swapaxes(-1, -2)
    np.maximum(rows, 0.0, out=split[..., :n])
    np.minimum(rows, 0.0, out=split[..., n:])
    ends = split @ operand
    return ends[..., 0] - err, ends[..., 1] + err


def expr_bounds(rows, operand, err):
    """Sound (lo, hi) arrays of the rows [c, k] (coefficients, constant),
    c @ x + k, over the box whose `box_operand` is given, each moved
    outward by its entry of `err`, shaped as the rows' leading axes.

    Each row is evaluated in a product of its own, so its bounds are those
    it would get in a batch of one.
    """
    lo, hi = _row_bounds(rows[..., np.newaxis, :], operand[..., np.newaxis, :, :], err[..., np.newaxis])
    return lo[..., 0], hi[..., 0]


def bounds_of_rows(rows, operand, err):
    """Concrete (lo, hi) arrays, shaped (..., 2, n) like the rows, of every
    row of a layer over the box whose `box_operand` is given, the lower
    and the upper row of unit i moved outward by err[..., i].

    The lower and the upper rows are bounded in one matrix product each.
    Raises IntervalOverflowError when a bound is not finite.
    """
    lo, hi = _row_bounds(rows, operand[..., np.newaxis, :, :], err[..., np.newaxis, :])
    _check_overflow(lo)
    _check_overflow(hi)
    return lo, hi


def relu_rows(rows, lo, hi) -> np.ndarray:
    """Push the rows through ReLU in place, given their `bounds_of_rows`.

    A unit whose upper row is never positive is ZERO: both rows become 0.
    One whose lower row is never negative is ACTIVE and keeps its rows.
    Any other is UNSTABLE: its lower row becomes 0, and its upper row
    becomes the constant up_hi when that row can go negative.
    Returns the int8 ReluState mask of the layer.
    """
    low_lo, up_lo, up_hi = lo[..., 0, :], lo[..., 1, :], hi[..., 1, :]
    zero = up_hi <= 0.0
    active = (low_lo >= 0.0) > zero
    off = ~active
    flat = ((up_lo <= 0.0) & off) | zero
    np.copyto(rows[..., 0, :, :], 0.0, where=off[..., np.newaxis])
    np.copyto(rows[..., 1, :, :-1], 0.0, where=flat[..., np.newaxis])
    # up_hi <= 0 on a ZERO unit, whose upper row goes to 0
    np.copyto(rows[..., 1, :, -1], np.maximum(up_hi, 0.0), where=flat)
    # ZERO 0, ACTIVE 1, UNSTABLE 2
    return 2 - active.view(np.int8) - 2 * zero.view(np.int8)
