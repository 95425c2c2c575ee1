import numpy as np
import pytest

from relucheck.intervals import Box, Interval
from relucheck.network import eval_concrete_batch
from relucheck.propagate import naive_forward, symbolic_forward
from relucheck.symbolic import ReluState

from conftest import make_net, random_box, random_net, sample_points


def _tol(iv):
    # roundoff accumulates over layers on both computation paths
    return 1e-12 * max(abs(iv.lo), abs(iv.hi), 1.0)


def test_naive_demo_example(demo_net, demo_box):
    (out,) = naive_forward(demo_net, demo_box).out_bounds
    assert out.lo == pytest.approx(0.0, abs=1e-12)
    assert out.hi == pytest.approx(22.0, abs=1e-12)


def test_naive_point_box(demo_net):
    (out,) = naive_forward(demo_net, Box.from_arrays([4.0, 1.0], [4.0, 1.0])).out_bounds
    assert out.contains(6.0)
    assert out.hi - out.lo <= 4 * np.spacing(11.0)


def test_naive_identity_net():
    net = make_net([np.eye(2)])
    fr = naive_forward(net, Box.from_arrays([-1, 0], [2, 3]))
    assert fr.out_bounds[0].subset_of(Interval(-1, 2), 1e-12)
    assert fr.out_bounds[1].subset_of(Interval(0, 3), 1e-12)
    assert Interval(-1, 2).subset_of(fr.out_bounds[0])


def test_symbolic_demo_example(demo_net, demo_box):
    fr = symbolic_forward(demo_net, demo_box)
    (out,) = fr.out_bounds
    assert out.lo == pytest.approx(6.0, abs=1e-12)
    assert out.hi == pytest.approx(16.0, abs=1e-12)
    assert fr.masks.layers == ([ReluState.ACTIVE, ReluState.ACTIVE],)
    assert fr.masks[0].dtype == np.int8
    # final expression is x + 2y
    np.testing.assert_allclose(fr.rows.low_c, [[1.0, 2.0]])
    np.testing.assert_allclose(fr.rows.up_c, [[1.0, 2.0]])


def test_symbolic_unstable_neuron(demo_net):
    # widening x to negative values drives the x+y neuron across zero
    box = Box.from_arrays([-10, 1], [6, 5])
    fr = symbolic_forward(demo_net, box)
    assert fr.masks[0][1] == ReluState.UNSTABLE
    assert fr.masks.layers[0].count(ReluState.UNSTABLE) == 2  # 2x+3y is unstable too
    naive = naive_forward(demo_net, box)
    (s,) = fr.out_bounds
    (n,) = naive.out_bounds
    assert s.subset_of(n, _tol(n))


def test_symbolic_zero_weight_net():
    net = make_net([np.zeros((2, 2)), np.zeros((1, 2))], [[0.5, -3.0], [0.25]])
    fr = symbolic_forward(net, Box.from_arrays([0, 0], [1, 1]))
    (out,) = fr.out_bounds
    assert out.lo == pytest.approx(0.25) and out.hi == pytest.approx(0.25)
    assert fr.masks[0][0] == ReluState.ACTIVE
    assert fr.masks[0][1] == ReluState.ZERO


def test_out_bounds_match_out_sym(demo_net, demo_box):
    from relucheck.symbolic import box_operand, expr_bounds

    fr = symbolic_forward(demo_net, demo_box)
    low, _ = expr_bounds(fr.rows.low_c, fr.rows.low_k, box_operand(demo_box))
    _, up = expr_bounds(fr.rows.up_c, fr.rows.up_k, box_operand(demo_box))
    assert fr.out_bounds[0].lo == pytest.approx(low[0], abs=1e-12)
    assert fr.out_bounds[0].hi == pytest.approx(up[0], abs=1e-12)


def test_dim_mismatch(demo_net):
    with pytest.raises(ValueError):
        naive_forward(demo_net, Box.from_arrays([0], [1]))
    with pytest.raises(ValueError):
        symbolic_forward(demo_net, Box.from_arrays([0, 0, 0], [1, 1, 1]))


def test_sandwich_fuzz():
    """concrete in symbolic bounds, symbolic within naive bounds."""
    rng = np.random.default_rng(3)
    for _ in range(40):
        net = random_net(rng)
        box = random_box(rng, net.input_dim)
        sym = symbolic_forward(net, box)
        nai = naive_forward(net, box)
        ys = eval_concrete_batch(net, sample_points(rng, box, 1000))
        for i in range(net.output_dim):
            s, n = sym.out_bounds[i], nai.out_bounds[i]
            assert s.subset_of(n, _tol(n))
            assert np.all(ys[:, i] >= s.lo) and np.all(ys[:, i] <= s.hi)


def test_inclusion_isotonicity_forward():
    rng = np.random.default_rng(5)
    for _ in range(20):
        net = random_net(rng)
        outer = random_box(rng, net.input_dim)
        lo, hi = outer.lo, outer.hi
        mid = (lo + hi) / 2
        inner = Box.from_arrays((lo + mid) / 2, (hi + mid) / 2)
        fo = symbolic_forward(net, outer)
        fi = symbolic_forward(net, inner)
        for i in range(net.output_dim):
            assert fi.out_bounds[i].subset_of(fo.out_bounds[i], _tol(fo.out_bounds[i]))


def test_mask_correctness_on_samples():
    rng = np.random.default_rng(9)
    for _ in range(15):
        net = random_net(rng)
        box = random_box(rng, net.input_dim)
        fr = symbolic_forward(net, box)
        pts = sample_points(rng, box, 200)
        # replay the forward pass, checking pre-activations against masks
        v = pts
        for k, layer in enumerate(net.layers[:-1]):
            z = v @ layer.W.T + layer.b
            for i, state in enumerate(fr.masks[k]):
                if state == ReluState.ZERO:
                    assert np.all(z[:, i] <= 1e-9)
                elif state == ReluState.ACTIVE:
                    assert np.all(z[:, i] >= -1e-9)
            v = np.maximum(z, 0.0)
