import numpy as np
import pytest

from relucheck.gradients import (
    backward_gradient,
    margin_gradients,
    smear_split_choice,
)
from relucheck.intervals import Box
from relucheck.network import eval_concrete, eval_concrete_batch
from relucheck.properties import And, DiffLE, Or, OutGE, OutLE, SoundCheck
from relucheck.propagate import ReluMaskMatrix, symbolic_forward
from relucheck.symbolic import ReluState

from conftest import random_box, random_net


def masks_of(*layers):
    return ReluMaskMatrix(tuple(np.array(l, dtype=np.int8) for l in layers))


def jacobian(lo, hi):
    """The interval Jacobian with entrywise bounds lo and hi."""
    return np.array([lo, hi], dtype=np.float64)


def test_backward_demo_active(demo_net):
    J = backward_gradient(demo_net, masks_of([ReluState.ACTIVE, ReluState.ACTIVE]))
    np.testing.assert_allclose(J[0], [[1.0, 2.0]])
    np.testing.assert_allclose(J[1], [[1.0, 2.0]])


def test_backward_all_zero(demo_net):
    J = backward_gradient(demo_net, masks_of([ReluState.ZERO, ReluState.ZERO]))
    # outward rounding may leave a one-subnormal fringe around zero
    np.testing.assert_allclose(J[0], [[0.0, 0.0]], atol=1e-300)
    np.testing.assert_allclose(J[1], [[0.0, 0.0]], atol=1e-300)


def test_backward_unstable_hull(demo_net):
    # right neuron unstable: d/dy = hull{3-1, 3-0} = [2, 3]
    J = backward_gradient(demo_net, masks_of([ReluState.ACTIVE, ReluState.UNSTABLE]))
    assert J[0, 0, 1] == pytest.approx(2.0)
    assert J[1, 0, 1] == pytest.approx(3.0)


def test_backward_shape_mismatch(demo_net):
    with pytest.raises(ValueError):
        backward_gradient(demo_net, masks_of([ReluState.ACTIVE]))
    with pytest.raises(ValueError):
        backward_gradient(demo_net, masks_of())


def test_smear_demo_choice(demo_net, demo_box):
    J = jacobian(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
    # smear(y) = 2*4 = 8 beats smear(x) = 1*2 = 2
    assert smear_split_choice(J, demo_box.widths()) == 1


def test_smear_tie_breaks_low():
    J = jacobian(np.ones((1, 2)), np.ones((1, 2)))
    assert smear_split_choice(J, Box([0, 0], [1, 1]).widths()) == 0


def test_smear_skips_point_dims():
    J = jacobian(np.ones((1, 2)), np.ones((1, 2)))
    assert smear_split_choice(J, Box([0, 0], [0, 1]).widths()) == 1


def test_smear_exhausted():
    # no dim wider than the precision: no split
    J = jacobian(np.ones((1, 1)), np.ones((1, 1)))
    assert smear_split_choice(J, Box([2.0], [2.0]).widths()) == -1


def test_naive_rule_picks_the_widest_splittable_dim_of_each_box():
    # without a Jacobian the score is the widths alone; ties break low
    widths = np.array([[1.0, 3.0, 3.0], [2.0, 0.5, 1.0], [0.25, 0.25, 0.25], [0.0, 1e-7, 0.5]])
    assert smear_split_choice(None, widths, 0.2).tolist() == [1, 0, 0, 2]
    assert smear_split_choice(None, widths[3], 0.2) == 2
    rng = np.random.default_rng(0)
    widths = rng.integers(0, 4, size=(200, 5)) / 4.0
    widths = widths[(widths > 0.25).any(axis=1)]
    for w, j in zip(widths, smear_split_choice(None, widths, 0.25).tolist()):
        assert j == min(i for i in range(5) if w[i] > 0.25 and w[i] == w.max())


def test_naive_rule_exhausted():
    # the second box has no dim wider than the precision
    assert smear_split_choice(None, np.array([[1.0, 2.0], [0.5, 0.5]]), 0.5).tolist() == [1, -1]


@pytest.mark.parametrize("with_jacobian", [True, False])
def test_smear_gives_minus_one_exactly_where_no_dim_can_split(with_jacobian):
    # a mixed stack: each box has -1 exactly where no dim is wider than the
    # precision, and elsewhere the choice it gets alone
    rng = np.random.default_rng(5)
    B, m, d, precision = 64, 3, 4, 0.5
    widths = rng.integers(0, 5, size=(B, d)) / 4.0
    widths[::3] = np.minimum(widths[::3], precision)
    J = None
    if with_jacobian:
        lo = rng.normal(size=(B, m, d))
        J = np.stack((lo, lo + rng.uniform(0.0, 1.0, size=(B, m, d))), axis=1)
    dims = smear_split_choice(J, widths, precision)
    exhausted = ~(widths > precision).any(axis=1)
    assert 0 < exhausted.sum() < B
    assert ((dims == -1) == exhausted).all()
    for b in range(B):
        alone = smear_split_choice(None if J is None else J[b], widths[b], precision)
        assert alone == dims[b]
        if not exhausted[b]:
            assert widths[b, dims[b]] > precision


def test_smear_uses_abs_upper():
    # |[-5,-4]| upper is 5; beats [1,2] on equal widths
    J = jacobian(np.array([[-5.0, 1.0]]), np.array([[-4.0, 2.0]]))
    assert smear_split_choice(J, Box([0, 0], [1, 1]).widths()) == 0


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
            assert np.all(g >= J[0] - 1e-4 * scale)
            assert np.all(g <= J[1] + 1e-4 * scale)
            checked += 1


def test_refinement_monotonicity_of_jacobian():
    rng = np.random.default_rng(23)
    for _ in range(15):
        net = random_net(rng)
        outer = random_box(rng, net.input_dim)
        lo, hi = outer.lo, outer.hi
        mid = (lo + hi) / 2
        inner = Box(lo, mid)
        Jo = backward_gradient(net, symbolic_forward(net, outer).masks)
        Ji = backward_gradient(net, symbolic_forward(net, inner).masks)
        slack = 1e-9 * np.maximum(np.abs(Jo[0]) + np.abs(Jo[1]), 1.0)
        assert np.all(Ji[0] >= Jo[0] - slack)
        assert np.all(Ji[1] <= Jo[1] + slack)


@pytest.mark.parametrize("seed", range(5))
def test_margin_gradients_match_the_point_jacobian(seed):
    # at a point no unit is at exactly 0, so the interval Jacobian of the
    # point box is the Jacobian, up to its outward rounding; each point
    # climbs the literal that sets its margin
    rng = np.random.default_rng(seed)
    net = random_net(rng, max_width=30, max_layers=5)
    d, m = net.input_dim, net.output_dim
    c0, c1, c2 = rng.normal(size=3)
    constraint = Or((And((OutLE(0, c0), OutGE(m - 1, c1))), DiffLE(0, m - 1, c2)))
    check = SoundCheck(constraint, m)
    xs = rng.uniform(-1.0, 1.0, size=(7, d))
    r, g = margin_gradients(net, xs, check)
    want, lit = check.active(eval_concrete_batch(net, xs))
    np.testing.assert_allclose(r, want, rtol=1e-12, atol=1e-12)
    for p in range(len(xs)):
        J = backward_gradient(net, symbolic_forward(net, Box(xs[p], xs[p])).masks)
        assert J[0] == pytest.approx(J[1], rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(g[p], check.A[lit[p]] @ J[0], rtol=1e-9, atol=1e-9)


def test_margin_gradients_stop_at_inactive_units(demo_net):
    # y = relu(2 x0 + 3 x1) - relu(x0 + x1): only the second unit is
    # active at (1, -0.75); at (1, -1) it is at exactly 0 and passes none
    check = SoundCheck(OutLE(0, 0.0), 1)
    r, g = margin_gradients(demo_net, np.array([[1.0, -0.75], [1.0, -1.0]]), check)
    assert r.tolist() == [0.25, 0.0]
    assert g.tolist() == [[-1.0, -1.0], [0.0, 0.0]]
