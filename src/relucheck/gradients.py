"""Backward interval Jacobian, smear-based split selection, and the
gradients of output margins at concrete points.

The Jacobian pass starts from the output layer's weights and walks the
hidden layers backwards, taking a Hadamard product with each unit's
gradient interval ([0,0] / [1,1] / [0,1] depending on its mask) followed
by an interval product with the layer's positive and negative parts,
read from the network's `split_weights`.
"""

from __future__ import annotations

import numpy as np

from .intervals import round_out
from .network import Network
from .propagate import ReluMaskMatrix

__all__ = [
    "backward_gradient",
    "margin_gradients",
    "smear_split_choice",
]


# gradient interval [lo, hi] of a unit, indexed by its ReluState code
_GRAD_LO = np.array([0.0, 1.0, 0.0])
_GRAD_HI = np.array([0.0, 1.0, 1.0])


def backward_gradient(net: Network, masks: ReluMaskMatrix) -> np.ndarray:
    """Interval Jacobian of outputs w.r.t. inputs, given activation masks:
    entrywise bounds on d(output_i)/d(input_j), the (m, d) lower bounds
    over the (m, d) upper bounds in one (2, m, d) array.

    The masks are those of one box or of a stack, whose Jacobian is
    (B, 2, m, d); each box of a stack gets the bits it would get alone.
    The inputs are those the first layer reads: where `net` has an input
    normalization, the normalized ones.
    """
    if len(masks) != net.num_hidden:
        raise ValueError(
            f"mask has {len(masks)} hidden layers, network has {net.num_hidden}"
        )
    lead = masks[0].shape[:-1] if masks else ()
    # the output layer's weights are exact, its lower and upper ends alike;
    # the first product with the masks broadcasts them over the stack
    W = net.layers[-1].W
    g = np.array((W, W))
    for k in range(net.num_hidden - 1, -1, -1):
        states = masks[k]
        n = net.layers[k].out_size
        if states.shape != lead + (n,):
            raise ValueError(f"mask layer {k} size disagrees with network")
        m_lo = _GRAD_LO[states][..., np.newaxis, np.newaxis, :]
        m_hi = _GRAD_HI[states][..., np.newaxis, np.newaxis, :]
        # Hadamard with the mask gradient interval (columns = layer-k units);
        # the mask ends are 0 or 1, so the lower end is the lesser product
        # of g_lo, the upper end the greater product of g_hi
        h, h_hi = m_lo * g, m_hi * g
        np.minimum(h[..., 0, :, :], h_hi[..., 0, :, :], out=h[..., 0, :, :])
        np.maximum(h[..., 1, :, :], h_hi[..., 1, :, :], out=h[..., 1, :, :])
        # [h_lo, h_hi] @ W with exact-weight columns: h_lo W+ + h_hi W- and
        # h_hi W+ + h_lo W-, each product of one shape; outward-rounded
        pos, neg = net.split_weights[k]
        g = h @ pos + h[..., ::-1, :, :] @ neg
        round_out(g[..., 0, :, :], g[..., 1, :, :])
    return g


def smear_split_choice(J, widths: np.ndarray, precision: float = 0.0):
    """Index of the most influential splittable input, one per box of a
    stack, given the `backward_gradient` J of the box or stack and its
    widths, (d,) or (B, d); -1 for a box with no dim wider than
    `precision`, which cannot split. This is the one rule of the search
    for whether and where a box splits, for a box's own split and for its
    children's plans.

    Score per input j: max over outputs of upper|J_ij| times widths[j].
    With J None (naive mode, which has no Jacobian) the score is widths[j]
    alone, so the choice is the widest dim. Dimensions no wider than
    `precision` are excluded; ties break low.
    """
    splittable = widths > precision
    smear = widths if J is None else np.abs(J).max(axis=(-3, -2)) * widths
    best = np.argmax(np.where(splittable, smear, -np.inf), axis=-1)
    return np.where(splittable.any(axis=-1), best, -1)


def margin_gradients(net: Network, xs: np.ndarray, check) -> tuple:
    """(r, g) at a batch of points xs (n, d), in the units of the
    network's inputs: the margins r (n,) of the compiled constraint `check`
    at the points' outputs, and the gradient g (n, d) of a_k . y in each
    point's input, for the literal k that sets its margin (see
    `SoundCheck.active`), back-propagated through the point's own
    activation pattern (a unit at exactly 0 passes none). The points are
    normalized first, and g is with respect to the inputs the first layer
    reads; a normalization divides by positive ranges, so g has the signs
    of the gradient in the points' own units. Stepping along g lowers that
    literal's margin.

    Each layer is one matrix product over the whole batch, so a point's
    bits may depend on the batch it is in: a caller that needs them
    repeatable forms its batches from its own state alone.
    """
    v = net.normalize(xs)
    active = []
    for k, layer in enumerate(net.layers):
        v = v @ layer.W.T + layer.b
        if k < net.num_hidden:
            active.append(v > 0.0)
            v = np.maximum(v, 0.0)
    r, lit = check.active(v)
    g = check.A.take(lit, axis=0)
    for k in range(net.num_hidden, -1, -1):
        g = g @ net.layers[k].W
        if k:
            g = g * active[k - 1]
    return r, g
