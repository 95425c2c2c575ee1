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
from .network import Activation, Network, split_weights
from .symbolic import SymRows, affine_rows, bounds_of_rows, box_arrays, relu_rows

__all__ = ["ReluMaskMatrix", "ForwardResult", "naive_forward", "symbolic_forward"]


class ReluMaskMatrix(tuple):
    """Per hidden layer, an int8 array of every ReLU unit's ReluState code."""

    @property
    def layers(self) -> tuple:
        """Per-layer lists of state codes. ReluState is an IntEnum, so
        `layers[k].count(ReluState.UNSTABLE)` counts a layer's unstable units."""
        return tuple(a.tolist() for a in self)


@dataclass(frozen=True)
class ForwardResult:
    """Output enclosure [lo, hi]; symbolic mode adds the output rows and
    the ReLU masks."""

    lo: np.ndarray
    hi: np.ndarray
    rows: Optional[SymRows] = None
    masks: Optional[ReluMaskMatrix] = None

    @property
    def out_bounds(self) -> tuple:
        return tuple(Interval(a, b) for a, b in zip(self.lo, self.hi))


def _check_dims(net: Network, x: Box):
    if len(x) != net.input_dim:
        raise ValueError(f"box has {len(x)} dims, network expects {net.input_dim}")


def naive_forward(net: Network, x: Box, policy: RoundingPolicy = DEFAULT_POLICY) -> ForwardResult:
    """Layerwise interval matvec + ReLU clamp; no dependency tracking."""
    _check_dims(net, x)
    lo, hi = x.lo, x.hi
    for layer in net.layers:
        lo, hi = matvec_bounds(layer.W, layer.b, lo, hi, policy)
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
    `split` is `split_weights(net)`, passed in by callers that run many
    boxes through one network.
    """
    _check_dims(net, x)
    if split is None:
        split = split_weights(net)
    lo, hi, amax = box_arrays(x)
    eye = np.eye(net.input_dim)
    zeros = np.zeros(net.input_dim)
    rows = SymRows(eye, zeros, eye, zeros)
    masks = []
    for layer, (pos, neg) in zip(net.layers, split):
        rows = affine_rows(rows, pos, neg, layer.b)
        if layer.activation is Activation.RELU:
            masks.append(relu_rows(rows, *bounds_of_rows(rows, lo, hi, amax, policy)))
    out_lo, _, out_hi = bounds_of_rows(rows, lo, hi, amax, policy)
    return ForwardResult(out_lo, out_hi, rows, ReluMaskMatrix(masks))
