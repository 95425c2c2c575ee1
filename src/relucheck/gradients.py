"""Backward interval Jacobian and smear-based split selection.

The Jacobian pass starts from the output layer's weights and walks the
hidden layers backwards, taking a Hadamard product with each unit's
gradient interval ([0,0] / [1,1] / [0,1] depending on its mask) followed
by an interval product with the layer's weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intervals import Box, RoundingPolicy, DEFAULT_POLICY, round_out
from .network import Network, split_weights
from .propagate import ReluMaskMatrix

__all__ = [
    "IntervalJacobian",
    "NoSplittableDimensionError",
    "backward_gradient",
    "smear_split_choice",
]


class NoSplittableDimensionError(ValueError):
    """All dimensions are at or below the splitting precision."""


@dataclass(frozen=True)
class IntervalJacobian:
    """Entrywise bounds on d(output_i)/d(input_j) over a box; shape m x d,
    or B x m x d for a stack of boxes."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or lo.ndim < 2:
            raise ValueError(f"Jacobian bound shapes disagree: {lo.shape} vs {hi.shape}")
        if np.any(lo > hi):
            raise ValueError("inverted Jacobian entry")

    @property
    def shape(self):
        return self.lo.shape

    def abs_upper(self) -> np.ndarray:
        """max(|lo|, |hi|) per entry -- the upper bound on |J_ij|."""
        return np.maximum(np.abs(self.lo), np.abs(self.hi))


# gradient interval [lo, hi] of a unit, indexed by its ReluState code
_GRAD_LO = np.array([0.0, 1.0, 0.0])
_GRAD_HI = np.array([0.0, 1.0, 1.0])


def backward_gradient(
    net: Network, masks: ReluMaskMatrix, policy: RoundingPolicy = DEFAULT_POLICY, split=None
) -> IntervalJacobian:
    """Interval Jacobian of outputs w.r.t. inputs, given activation masks.

    The masks are those of one box or of a stack; each box of a stack
    gets the bits it would get alone. `split` is `split_weights(net)`,
    passed in by callers that run many boxes through one network.
    """
    if len(masks) != net.num_hidden:
        raise ValueError(
            f"mask has {len(masks)} hidden layers, network has {net.num_hidden}"
        )
    if split is None:
        split = split_weights(net)
    lead = masks[0].shape[:-1] if masks else ()
    g_lo = g_hi = np.broadcast_to(net.layers[-1].W, lead + net.layers[-1].W.shape)
    for k in range(net.num_hidden - 1, -1, -1):
        states = masks[k]
        n = net.layers[k].out_size
        if states.shape != lead + (n,):
            raise ValueError(f"mask layer {k} size disagrees with network")
        m_lo = _GRAD_LO[states][..., np.newaxis, :]
        m_hi = _GRAD_HI[states][..., np.newaxis, :]
        # Hadamard with the mask gradient interval (columns = layer-k units);
        # the mask ends are 0 or 1, so the lower end takes g_lo, the upper g_hi
        g = np.empty(g_lo.shape[:-2] + (2,) + g_lo.shape[-2:])
        np.minimum(m_lo * g_lo, m_hi * g_lo, out=g[..., 0, :, :])
        np.maximum(m_lo * g_hi, m_hi * g_hi, out=g[..., 1, :, :])
        # [g_lo, g_hi] @ W with exact-weight columns: g_lo W+ + g_hi W- and
        # g_hi W+ + g_lo W-, each product of one shape; outward-rounded
        pos, neg = split[k]
        g = g @ pos + g[..., ::-1, :, :] @ neg
        g_lo, g_hi = round_out(g[..., 0, :, :], g[..., 1, :, :], policy)
    return IntervalJacobian(g_lo, g_hi)


def smear_split_choice(
    J: IntervalJacobian, x: Box, precision: float = 0.0
):
    """Index of the most influential splittable input, one per box of a
    stack.

    Score per input j: max over outputs of upper|J_ij| times width(x_j).
    Dimensions no wider than `precision` are excluded; ties break low.
    """
    widths = x.widths()
    splittable = widths > precision
    if not splittable.any(axis=-1).all():
        raise NoSplittableDimensionError("exhausted: no dimension wider than precision")
    influence = J.abs_upper().max(axis=-2)
    smear = np.where(splittable, influence * widths, -np.inf)
    return np.argmax(smear, axis=-1)
