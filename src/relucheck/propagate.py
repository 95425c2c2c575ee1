"""Forward output-range analysis: naive interval extension and symbolic mode.

Both produce sound overestimates of the network image over a box; the
symbolic mode additionally yields per-neuron activation masks consumed by
the backward gradient pass, and output rows used for tight pairwise
property checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .intervals import Box, Interval, RoundingPolicy, DEFAULT_POLICY, matvec_bounds
from .network import Activation, DimensionMismatchError, Network, split_weights
from .symbolic import SymRows, affine_rows, bounds_of_rows, box_operand, relu_rows

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


@dataclass(frozen=True)
class ForwardResult:
    """Output enclosure [lo, hi]; symbolic mode adds the output rows, the
    ReLU masks and the `box_operand` the rows are bounded over. For a stack
    of boxes, every array leads with the stack's axis."""

    lo: np.ndarray
    hi: np.ndarray
    rows: Optional[SymRows] = None
    masks: Optional[ReluMaskMatrix] = None
    operand: Optional[np.ndarray] = None

    @property
    def out_bounds(self) -> tuple:
        return tuple(Interval(a, b) for a, b in zip(self.lo, self.hi))


def _check_dims(net: Network, x: Box):
    if len(x) != net.input_dim:
        raise DimensionMismatchError(f"box has {len(x)} dims, network expects {net.input_dim}")


def naive_forward(
    net: Network, x: Box, policy: RoundingPolicy = DEFAULT_POLICY, split=None
) -> ForwardResult:
    """Layerwise interval matvec + ReLU clamp; no dependency tracking.

    `x` is a box or a stack of boxes. `split` is `split_weights(net)`,
    passed in by callers that run many boxes through one network.
    """
    _check_dims(net, x)
    if split is None:
        split = split_weights(net)
    lo, hi = x.lo, x.hi
    for layer, parts in zip(net.layers, split):
        lo, hi = matvec_bounds(layer.W, layer.b, lo, hi, policy, parts)
        if layer.activation is Activation.RELU:
            lo = np.maximum(lo, 0.0)
            hi = np.maximum(hi, 0.0)
    return ForwardResult(lo, hi)


def symbolic_forward(
    net: Network, x: Box, policy: RoundingPolicy = DEFAULT_POLICY, split=None
) -> ForwardResult:
    """Symbolic interval analysis with per-ReLU concretization.

    Keeps one lower and one upper linear expression per neuron, dropping
    to concrete bounds only where a ReLU's sign is unresolved over the box.
    `x` is a box or a stack of boxes; each box of a stack gets the bits it
    would get alone. `split` is `split_weights(net)`, passed in by callers
    that run many boxes through one network.
    """
    _check_dims(net, x)
    if split is None:
        split = split_weights(net)
    operand = box_operand(x)
    # the first layer's rows are the layer itself, lower and upper alike
    first = net.layers[0]
    rows = SymRows(np.empty(x.lo.shape[:-1] + (2, first.out_size, first.in_size + 1)))
    rows.stack[..., :-1] = first.W
    rows.stack[..., -1] = first.b
    masks = []
    for k, layer in enumerate(net.layers):
        if k:
            rows = affine_rows(rows, *split[k], layer.b)
        if layer.activation is Activation.RELU:
            masks.append(relu_rows(rows, *bounds_of_rows(rows, operand, policy)))
    lo, hi = bounds_of_rows(rows, operand, policy)
    return ForwardResult(lo[..., 0, :], hi[..., 1, :], rows, ReluMaskMatrix(masks), operand)
