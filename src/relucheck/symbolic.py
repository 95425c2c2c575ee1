"""Linear symbolic bounds kept as one row stack, and their concrete ranges.

A neuron's value over the input box is sandwiched between two linear
expressions in the d network inputs. A layer of n neurons keeps its
expressions as the rows of one (2, n, d+1) array: the n lower rows over
the n upper rows, each row its d coefficients followed by its constant. A
stack of B boxes has a (B, 2, n, d+1) array, and every function here
works on either shape. Lower and upper rows always go through products of
one shape, so rows that coincide keep coinciding. Affine layers transform
the rows exactly; ReLU keeps a unit's rows, zeroes them, or concretizes
the upper row, depending on the sign information available over the box.
"""

from __future__ import annotations

import enum

import numpy as np

from .intervals import Box, RoundingPolicy, DEFAULT_POLICY, _check_overflow

__all__ = [
    "ReluState",
    "SymRows",
    "box_operand",
    "expr_bounds",
    "bounds_of_rows",
    "affine_rows",
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


class SymRows:
    """A layer's rows: `stack` is (..., 2, n, d+1), lower rows over upper
    rows, constants in the last column. The named parts are views."""

    __slots__ = ("stack",)

    def __init__(self, stack: np.ndarray):
        self.stack = stack

    @property
    def flat(self) -> np.ndarray:
        """The (..., 2n, d+1) view: lower row i is row i, upper row i is
        row n + i."""
        return self.stack.reshape(self.stack.shape[:-3] + (-1, self.stack.shape[-1]))

    @property
    def low_c(self):
        return self.stack[..., 0, :, :-1]

    @property
    def low_k(self):
        return self.stack[..., 0, :, -1]

    @property
    def up_c(self):
        return self.stack[..., 1, :, :-1]

    @property
    def up_k(self):
        return self.stack[..., 1, :, -1]


def box_operand(x: Box) -> np.ndarray:
    """The (..., 2(d+1), 3) matrix that bounds rows over a box or stack.

    Its rows are [lo, hi, amax] per input and [1, 1, 1], then
    [hi, lo, -amax] per input and [1, 1, -1], amax = max(|lo|, |hi|). A
    row r = [c, k] (coefficients, constant) is bounded through
    [r+ | r-] @ operand: the columns give c+ lo + c- hi + k (its low end),
    c+ hi + c- lo + k (its high end) and |c| @ amax + |k| (the magnitude
    its rounding slack is scaled by).
    """
    lo, hi = x.lo, x.hi
    amax = np.maximum(np.abs(lo), np.abs(hi))
    lead, d = lo.shape[:-1], lo.shape[-1]
    op = np.empty(lead + (2, d + 1, 3))
    op[..., 0, :d, 0] = op[..., 1, :d, 1] = lo
    op[..., 0, :d, 1] = op[..., 1, :d, 0] = hi
    op[..., 0, :d, 2] = amax
    np.negative(amax, out=op[..., 1, :d, 2])
    op[..., d, :] = _CONST_ENDS
    return op.reshape(lead + (2 * d + 2, 3))


# what a row's constant adds to each column, through its positive part
# (top) and its negative part (bottom)
_CONST_ENDS = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]])


def _row_bounds(rows, operand, policy: RoundingPolicy):
    """Sound bounds of rows [c, k] (coefficients, constant), through the
    product of their sign split with the (broadcast) `box_operand`: a
    sign-split evaluation widened by the slack. The last axis of the
    result holds each row's (lo, hi).

    The slack covers the accumulated error of the (d+1)-term evaluation
    sum. Coefficient arithmetic is done in working precision; soundness of
    the concretized bound is restored with the standard dot-product
    roundoff bound, n * u * sum(|terms|) with u the unit roundoff.
    """
    ends = np.concatenate((np.maximum(rows, 0.0), np.minimum(rows, 0.0)), axis=-1) @ operand
    if policy.mode == "none":
        return ends[..., :2]
    fi = np.finfo(policy.dtype)
    slack = rows.shape[-1] * (fi.eps / 2) * ends[..., 2:] + 2 * fi.tiny
    return ends[..., :2] + slack * _OUTWARD


_OUTWARD = np.array([-1.0, 1.0])


def expr_bounds(coeffs, consts, operand, policy: RoundingPolicy = DEFAULT_POLICY):
    """Sound (lo, hi) arrays of the rows coeffs @ x + consts over the box
    whose `box_operand` is given.

    Each row is evaluated in a product of its own, so its bounds are those
    it would get in a batch of one.
    """
    rows = np.concatenate((coeffs, consts[..., np.newaxis]), axis=-1)
    bounds = _row_bounds(rows[..., np.newaxis, :], operand[..., np.newaxis, :, :], policy)
    return bounds[..., 0, 0], bounds[..., 0, 1]


def bounds_of_rows(rows: SymRows, operand, policy: RoundingPolicy = DEFAULT_POLICY):
    """Concrete (lo, hi) arrays, shaped (..., 2, n) like the rows, of every
    row of a layer over the box whose `box_operand` is given.

    The lower and the upper rows are bounded in one matrix product each.
    Raises IntervalOverflowError when a bound is not finite.
    """
    bounds = _row_bounds(rows.stack, operand[..., np.newaxis, :, :], policy)
    _check_overflow(bounds)
    return bounds[..., 0], bounds[..., 1]


def affine_rows(rows: SymRows, pos, neg, b) -> SymRows:
    """Symbolic image of the rows under W x + b, where pos and neg are the
    positive and negative parts of W.

    Positive weights propagate like bounds, negative weights swap them:
    the lower rows become pos @ low + neg @ up and the upper rows
    pos @ up + neg @ low, each product of one shape. Biases enter the
    constant term of both.
    """
    stack = rows.stack
    out = pos @ stack + neg @ stack[..., ::-1, :, :]
    out[..., -1] += b
    return SymRows(out)


def relu_rows(rows: SymRows, lo, hi) -> np.ndarray:
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
    stack = rows.stack
    np.copyto(stack[..., 0, :, :], 0.0, where=off[..., np.newaxis])
    np.copyto(stack[..., 1, :, :-1], 0.0, where=flat[..., np.newaxis])
    # up_hi <= 0 on a ZERO unit, whose upper row goes to 0
    np.copyto(stack[..., 1, :, -1], np.maximum(up_hi, 0.0), where=flat)
    # ZERO 0, ACTIVE 1, UNSTABLE 2
    return 2 - active.view(np.int8) - 2 * zero.view(np.int8)
