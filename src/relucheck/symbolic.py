"""Linear symbolic bounds kept as row matrices, and their concrete ranges.

A neuron's value over the input box is sandwiched between two linear
expressions in the d network inputs. A layer's expressions are the rows
of a `SymRows`: (n, d) coefficient matrices and (n,) constant vectors for
the lower and the upper bounds. Affine layers transform the rows exactly;
ReLU keeps a unit's rows, zeroes them, or concretizes the upper row,
depending on the sign information available over the box.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .intervals import Box, RoundingPolicy, DEFAULT_POLICY, _check_overflow

__all__ = [
    "ReluState",
    "SymRows",
    "box_arrays",
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


class SymRows(NamedTuple):
    """Lower rows low_c @ x + low_k and upper rows up_c @ x + up_k."""

    low_c: np.ndarray
    low_k: np.ndarray
    up_c: np.ndarray
    up_k: np.ndarray


def box_arrays(x: Box):
    """(lo, hi, max(|lo|, |hi|)) of a box, the arrays every bound reads."""
    lo, hi = x.lo, x.hi
    return lo, hi, np.maximum(np.abs(lo), np.abs(hi))


def _slack(coeffs, consts, amax, policy: RoundingPolicy, dot=np.matmul):
    """Accumulated-error slack covering the (d+1)-term evaluation sum.

    Coefficient arithmetic is done in working precision; soundness of the
    concretized bound is restored here with the standard dot-product
    roundoff bound, n * u * sum(|terms|) with u the unit roundoff.
    """
    if policy.mode == "none":
        return 0.0
    mag = dot(np.abs(coeffs), amax) + np.abs(consts)
    n = coeffs.shape[-1] + 1
    fi = np.finfo(policy.dtype)
    return n * (fi.eps / 2) * mag + 2 * fi.tiny


def _rowdot(a, v):
    """a @ v with every row summed on its own, as a BLAS dot product, so a
    row's value does not depend on the rows stacked with it."""
    return (a[:, np.newaxis, :] @ v)[:, 0]


def expr_bounds(coeffs, consts, lo, hi, amax, policy: RoundingPolicy = DEFAULT_POLICY):
    """Sound (lo, hi) arrays of the rows coeffs @ x + consts over the box
    given by `box_arrays`: a sign-split evaluation widened by the slack.

    Each row is evaluated on its own, so its bounds are those it would get
    in a batch of one.
    """
    pos = np.maximum(coeffs, 0.0)
    neg = np.minimum(coeffs, 0.0)
    s = _slack(coeffs, consts, amax, policy, _rowdot)
    return (
        _rowdot(pos, lo) + _rowdot(neg, hi) + consts - s,
        _rowdot(pos, hi) + _rowdot(neg, lo) + consts + s,
    )


def bounds_of_rows(rows: SymRows, lo, hi, amax, policy: RoundingPolicy = DEFAULT_POLICY):
    """Concrete (lower rows' lo, upper rows' lo, upper rows' hi) arrays of
    a layer's rows, over the box given by `box_arrays`.

    A layer's rows are always bounded together, one matrix product per
    sum. Raises IntervalOverflowError when a bound is not finite.
    """
    pos = np.maximum(rows.up_c, 0.0)
    neg = np.minimum(rows.up_c, 0.0)
    s = _slack(rows.up_c, rows.up_k, amax, policy)
    up_lo = pos @ lo + neg @ hi + rows.up_k - s
    up_hi = pos @ hi + neg @ lo + rows.up_k + s
    pos = np.maximum(rows.low_c, 0.0)
    neg = np.minimum(rows.low_c, 0.0)
    low_lo = pos @ lo + neg @ hi + rows.low_k - _slack(rows.low_c, rows.low_k, amax, policy)
    _check_overflow(low_lo, up_lo, up_hi)
    return low_lo, up_lo, up_hi


def affine_rows(rows: SymRows, pos, neg, b) -> SymRows:
    """Symbolic image of the rows under W x + b, where pos and neg are the
    positive and negative parts of W.

    Positive weights propagate like bounds, negative weights swap them;
    biases enter the constant term of both expressions.
    """
    low_c, low_k, up_c, up_k = rows
    return SymRows(
        pos @ low_c + neg @ up_c,
        pos @ low_k + neg @ up_k + b,
        pos @ up_c + neg @ low_c,
        pos @ up_k + neg @ low_k + b,
    )


def relu_rows(rows: SymRows, low_lo, up_lo, up_hi) -> np.ndarray:
    """Push the rows through ReLU in place, given their concrete bounds.

    A unit whose upper row is never positive is ZERO: both rows become 0.
    One whose lower row is never negative is ACTIVE and keeps its rows.
    Any other is UNSTABLE: its lower row becomes 0, and its upper row
    becomes the constant up_hi when that row can go negative.
    Returns the int8 ReluState mask of the layer.
    """
    zero = up_hi <= 0.0
    active = ~zero & (low_lo >= 0.0)
    off = ~active
    flat = zero | (off & (up_lo <= 0.0))
    rows.low_c[off] = 0.0
    rows.low_k[off] = 0.0
    rows.up_c[flat] = 0.0
    rows.up_k[flat] = up_hi[flat]
    rows.up_k[zero] = 0.0
    mask = np.full(up_hi.shape, ReluState.UNSTABLE, dtype=np.int8)
    mask[active] = ReluState.ACTIVE
    mask[zero] = ReluState.ZERO
    return mask
