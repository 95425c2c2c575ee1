import numpy as np
import pytest

from relucheck.gradients import (
    IntervalJacobian,
    NoSplittableDimensionError,
    backward_gradient,
    smear_split_choice,
)
from relucheck.intervals import Box
from relucheck.network import eval_concrete
from relucheck.propagate import ReluMaskMatrix, symbolic_forward
from relucheck.symbolic import ReluState

from conftest import random_box, random_net


def masks_of(*layers):
    return ReluMaskMatrix(tuple(np.array(l, dtype=np.int8) for l in layers))


def test_backward_demo_active(demo_net):
    J = backward_gradient(demo_net, masks_of([ReluState.ACTIVE, ReluState.ACTIVE]))
    np.testing.assert_allclose(J.lo, [[1.0, 2.0]])
    np.testing.assert_allclose(J.hi, [[1.0, 2.0]])


def test_backward_all_zero(demo_net):
    J = backward_gradient(demo_net, masks_of([ReluState.ZERO, ReluState.ZERO]))
    # outward rounding may leave a one-subnormal fringe around zero
    np.testing.assert_allclose(J.lo, [[0.0, 0.0]], atol=1e-300)
    np.testing.assert_allclose(J.hi, [[0.0, 0.0]], atol=1e-300)


def test_backward_unstable_hull(demo_net):
    # right neuron unstable: d/dy = hull{3-1, 3-0} = [2, 3]
    J = backward_gradient(demo_net, masks_of([ReluState.ACTIVE, ReluState.UNSTABLE]))
    assert J.lo[0, 1] == pytest.approx(2.0)
    assert J.hi[0, 1] == pytest.approx(3.0)


def test_backward_shape_mismatch(demo_net):
    with pytest.raises(ValueError):
        backward_gradient(demo_net, masks_of([ReluState.ACTIVE]))
    with pytest.raises(ValueError):
        backward_gradient(demo_net, masks_of())


def test_smear_demo_choice(demo_net, demo_box):
    J = IntervalJacobian(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
    # smear(y) = 2*4 = 8 beats smear(x) = 1*2 = 2
    assert smear_split_choice(J, demo_box) == 1


def test_smear_tie_breaks_low():
    J = IntervalJacobian(np.ones((1, 2)), np.ones((1, 2)))
    assert smear_split_choice(J, Box.from_arrays([0, 0], [1, 1])) == 0


def test_smear_skips_point_dims():
    J = IntervalJacobian(np.ones((1, 2)), np.ones((1, 2)))
    assert smear_split_choice(J, Box.from_arrays([0, 0], [0, 1])) == 1


def test_smear_exhausted():
    J = IntervalJacobian(np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(NoSplittableDimensionError):
        smear_split_choice(J, Box.from_arrays([2.0], [2.0]))


def test_smear_uses_abs_upper():
    # |[-5,-4]| upper is 5; beats [1,2] on equal widths
    J = IntervalJacobian(np.array([[-5.0, 1.0]]), np.array([[-4.0, 2.0]]))
    assert smear_split_choice(J, Box.from_arrays([0, 0], [1, 1])) == 0


def _fd_gradient(net, x, h):
    d = len(x)
    g = np.zeros((net.output_dim, d))
    for j in range(d):
        xp, xm = x.copy(), x.copy()
        xp[j] += h[j]
        xm[j] -= h[j]
        g[:, j] = (eval_concrete(net, xp) - eval_concrete(net, xm)) / (2 * h[j])
    return g


def _away_from_kinks(net, x, margin=1e-3):
    v = x
    for layer in net.layers[:-1]:
        z = v @ layer.W.T + layer.b
        if np.any(np.abs(z) < margin):
            return False
        v = np.maximum(z, 0.0)
    return True


def test_finite_difference_containment():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 30:
        net = random_net(rng)
        box = random_box(rng, net.input_dim)
        fr = symbolic_forward(net, box)
        J = backward_gradient(net, fr.masks)
        lo, hi = box.lo, box.hi
        h = 1e-4 * box.widths()
        for _ in range(20):
            x = rng.uniform(lo + 2 * h, hi - 2 * h)
            if not _away_from_kinks(net, x):
                continue
            g = _fd_gradient(net, x, h)
            scale = np.maximum(np.abs(g), 1.0)
            assert np.all(g >= J.lo - 1e-4 * scale)
            assert np.all(g <= J.hi + 1e-4 * scale)
            checked += 1


def test_refinement_monotonicity_of_jacobian():
    rng = np.random.default_rng(23)
    for _ in range(15):
        net = random_net(rng)
        outer = random_box(rng, net.input_dim)
        lo, hi = outer.lo, outer.hi
        mid = (lo + hi) / 2
        inner = Box.from_arrays(lo, mid)
        Jo = backward_gradient(net, symbolic_forward(net, outer).masks)
        Ji = backward_gradient(net, symbolic_forward(net, inner).masks)
        slack = 1e-9 * np.maximum(np.abs(Jo.lo) + np.abs(Jo.hi), 1.0)
        assert np.all(Ji.lo >= Jo.lo - slack)
        assert np.all(Ji.hi <= Jo.hi + slack)
