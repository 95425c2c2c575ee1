"""Forward output-range analysis: naive interval extension and symbolic mode.

Both produce sound overestimates of the network image over a box; the
symbolic mode additionally yields per-neuron activation masks consumed by
the backward gradient pass, and the output rows, which the property check
maps through its literal rows. The symbolic mode bounds the hidden layers
only: its output bounds are computed from the output rows on first read,
which the search never makes. Both take boxes in the units the network's
inputs are given in: a network with an input normalization maps each box
through `net.normalize`, rounded to nearest, before its first layer.
"""

from __future__ import annotations

import functools

import numpy as np

from .intervals import Box, Interval, affine_rows, matvec_bounds
from .network import DimensionMismatchError, Network
from .symbolic import bounds_of_rows, box_operand, relu_rows

__all__ = ["ReluMaskMatrix", "ForwardResult", "naive_forward", "symbolic_forward"]


class ReluMaskMatrix(tuple):
    """Per hidden layer, an int8 array of every ReLU unit's ReluState code:
    (n,) for one box, (B, n) for a stack."""

    @property
    def layers(self) -> tuple:
        """Per-layer lists of state codes, a stack's boxes one after the
        other. ReluState is an IntEnum, so `layers[k].count(ReluState.UNSTABLE)`
        counts a layer's unstable units."""
        return tuple(a.ravel().tolist() for a in self)


class ForwardResult:
    """Output enclosure [lo, hi]; symbolic mode adds the output rows (a
    (..., 2, m, d+1) array, laid out as in `symbolic`), the ReLU masks and
    the `box_operand` the rows are bounded over. For a stack of boxes,
    every array leads with the stack's axis.

    A symbolic result is made without `lo` and `hi`: the property check
    bounds its literal rows from `rows`, not the outputs. They are bounded
    from `rows` over `operand` on first read, and then kept; that read
    raises IntervalOverflowError when a bound is not finite.
    """

    def __init__(self, lo=None, hi=None, rows=None, masks=None, operand=None):
        if lo is not None:
            self._ends = lo, hi
        self.rows = rows
        self.masks = masks
        self.operand = operand

    @functools.cached_property
    def _ends(self) -> tuple:
        """(lo, hi) of a symbolic result, bounded from its rows."""
        lo, hi = bounds_of_rows(self.rows, self.operand)
        return lo[..., 0, :], hi[..., 1, :]

    @property
    def lo(self) -> np.ndarray:
        return self._ends[0]

    @property
    def hi(self) -> np.ndarray:
        return self._ends[1]

    @property
    def out_bounds(self) -> tuple:
        return tuple(Interval(a, b) for a, b in zip(self.lo, self.hi))


def _first_layer_box(net: Network, x: Box) -> Box:
    """`x` in the coordinates the first layer reads: its ends mapped
    through `net.normalize`, rounded to nearest, where `net` has an input
    normalization."""
    if len(x) != net.input_dim:
        raise DimensionMismatchError(f"box has {len(x)} dims, network expects {net.input_dim}")
    return Box.stack(net.normalize(x.ends)) if net.has_normalization else x


def naive_forward(net: Network, x: Box) -> ForwardResult:
    """Layerwise interval matvec + ReLU clamp; no dependency tracking.

    `x` is a box or a stack of boxes, in the units of the network's
    inputs.
    """
    ends = _first_layer_box(net, x).ends
    for k, (layer, parts) in enumerate(zip(net.layers, net.split_weights)):
        # a new array on every layer, so the clamp never writes into x
        ends = matvec_bounds(parts, layer.b, ends)
        if k < net.num_hidden:
            np.maximum(ends, 0.0, out=ends)
    return ForwardResult(ends[..., 0, :], ends[..., 1, :])


def symbolic_forward(net: Network, x: Box) -> ForwardResult:
    """Symbolic interval analysis with per-ReLU concretization.

    Keeps one lower and one upper linear expression per neuron, dropping
    to concrete bounds only where a ReLU's sign is unresolved over the box.
    `x` is a box or a stack of boxes, in the units of the network's
    inputs; the expressions are over the inputs the first layer reads.
    Each box of a stack gets the bits it would get alone. The output
    bounds are left to the result's first read of `lo` or `hi`.
    """
    x = _first_layer_box(net, x)
    operand = box_operand(x)
    # the first layer's rows are the layer itself, lower and upper alike
    first = net.layers[0]
    rows = np.empty(x.ends.shape[:-2] + (2, first.in_size + 1, first.out_size)).swapaxes(-1, -2)
    rows[..., :-1] = first.W
    rows[..., -1] = first.b
    masks = []
    for k, layer in enumerate(net.layers):
        if k:
            rows = affine_rows(rows, *net.split_weights[k], layer.b)
        if k < net.num_hidden:
            masks.append(relu_rows(rows, *bounds_of_rows(rows, operand)))
    return ForwardResult(rows=rows, masks=ReluMaskMatrix(masks), operand=operand)
