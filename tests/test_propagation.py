import numpy as np
import pytest

from relucheck.gradients import backward_gradient
from relucheck.intervals import Box, Interval, iv_bisect
from relucheck.network import Network, eval_concrete, eval_concrete_batch
from relucheck.propagate import naive_forward, symbolic_forward
from relucheck.symbolic import ReluState

from conftest import make_net, random_box, random_net, sample_points, subset_of


def _tol(iv):
    # roundoff accumulates over layers on both computation paths
    return 1e-12 * max(abs(iv.lo), abs(iv.hi), 1.0)


def test_naive_demo_example(demo_net, demo_box):
    (out,) = naive_forward(demo_net, demo_box).out_bounds
    assert out.lo == pytest.approx(0.0, abs=1e-12)
    assert out.hi == pytest.approx(22.0, abs=1e-12)


def test_naive_point_box(demo_net):
    box = Box([4.0, 1.0], [4.0, 1.0])
    (out,) = naive_forward(demo_net, box).out_bounds
    assert out.lo <= 6.0 <= out.hi
    # each layer moves its ends by its share of the output's error term,
    # and the shares add up to the term; each end also rounds once a layer
    (err,) = demo_net.error_bound.terms(np.abs(box.hi))[-1]
    assert 0.0 < err and out.hi - out.lo <= 2 * err + 4 * np.spacing(11.0)


def test_naive_identity_net():
    net = make_net([np.eye(2)])
    fr = naive_forward(net, Box([-1, 0], [2, 3]))
    assert subset_of(fr.out_bounds[0], Interval(-1, 2), 1e-12)
    assert subset_of(fr.out_bounds[1], Interval(0, 3), 1e-12)
    assert subset_of(Interval(-1, 2), fr.out_bounds[0])


def test_symbolic_demo_example(demo_net, demo_box):
    fr = symbolic_forward(demo_net, demo_box)
    (out,) = fr.out_bounds
    assert out.lo == pytest.approx(6.0, abs=1e-12)
    assert out.hi == pytest.approx(16.0, abs=1e-12)
    assert fr.masks.layers == ([ReluState.ACTIVE, ReluState.ACTIVE],)
    assert fr.masks[0].dtype == np.int8
    # final expression is x + 2y
    np.testing.assert_allclose(fr.rows[..., 0, :, :-1], [[1.0, 2.0]])
    np.testing.assert_allclose(fr.rows[..., 1, :, :-1], [[1.0, 2.0]])


def test_symbolic_unstable_neuron(demo_net):
    # widening x to negative values drives the x+y neuron across zero
    box = Box([-10, 1], [6, 5])
    fr = symbolic_forward(demo_net, box)
    assert fr.masks[0][1] == ReluState.UNSTABLE
    assert fr.masks.layers[0].count(ReluState.UNSTABLE) == 2  # 2x+3y is unstable too
    naive = naive_forward(demo_net, box)
    (s,) = fr.out_bounds
    (n,) = naive.out_bounds
    assert subset_of(s, n, _tol(n))


def test_symbolic_zero_weight_net():
    net = make_net([np.zeros((2, 2)), np.zeros((1, 2))], [[0.5, -3.0], [0.25]])
    fr = symbolic_forward(net, Box([0, 0], [1, 1]))
    (out,) = fr.out_bounds
    assert out.lo == pytest.approx(0.25) and out.hi == pytest.approx(0.25)
    assert fr.masks[0][0] == ReluState.ACTIVE
    assert fr.masks[0][1] == ReluState.ZERO


def test_out_bounds_match_out_sym(demo_net, demo_box):
    from relucheck.symbolic import box_operand, expr_bounds

    fr = symbolic_forward(demo_net, demo_box)
    low_rows, up_rows = fr.rows
    low, _ = expr_bounds(low_rows, box_operand(demo_box), fr.err)
    _, up = expr_bounds(up_rows, box_operand(demo_box), fr.err)
    assert fr.out_bounds[0].lo == pytest.approx(low[0], abs=1e-12)
    assert fr.out_bounds[0].hi == pytest.approx(up[0], abs=1e-12)


def test_dim_mismatch(demo_net):
    with pytest.raises(ValueError):
        naive_forward(demo_net, Box([0], [1]))
    with pytest.raises(ValueError):
        symbolic_forward(demo_net, Box([0, 0, 0], [1, 1, 1]))


@pytest.mark.parametrize("seed", range(3))
def test_passes_normalize_the_box_first(seed):
    # over a raw box, or a stack of them, a network with an input
    # normalization gives the bits of its layers alone over the box mapped
    # through net.normalize and moved 2 ULPs outward; its Jacobian is with
    # respect to those normalized inputs
    rng = np.random.default_rng(seed)
    layers = random_net(rng, max_width=20, max_layers=3).layers
    d = layers[0].in_size
    net = Network(layers, rng.normal(size=d) * 100.0, rng.uniform(1.0, 1e4, size=d))
    core = Network(layers)
    boxes = [random_box(rng, d, max_width=1e3, center_scale=1e3) for _ in range(3)]
    for raw in boxes + [Box.stack(np.array([b.ends for b in boxes]))]:
        ends = net.normalize(raw.ends)
        for side, way in ((ends[..., 0, :], -np.inf), (ends[..., 1, :], np.inf)):
            side[...] = np.nextafter(np.nextafter(side, way), way)
        box = Box.stack(ends)
        for analyse in (naive_forward, symbolic_forward):
            got, want = analyse(net, raw), analyse(core, box)
            assert got.lo.tobytes() == want.lo.tobytes() and got.hi.tobytes() == want.hi.tobytes()
        masks = symbolic_forward(net, raw).masks
        assert masks.layers == symbolic_forward(core, box).masks.layers
        assert backward_gradient(net, masks).tobytes() == backward_gradient(core, masks).tobytes()
    # eval_concrete maps x = 104 to (104 - 100) / 8 = 0.5 before the first
    # layer, and so do the passes
    net = Network(make_net([np.eye(1), np.eye(1)]).layers, np.array([100.0]), np.array([8.0]))
    assert eval_concrete(net, [104.0]).tolist() == [0.5]
    for analyse in (naive_forward, symbolic_forward):
        (out,) = analyse(net, Box([104.0], [104.0])).out_bounds
        assert out.lo <= 0.5 <= out.hi


@pytest.mark.parametrize("seed", range(4))
def test_passes_do_not_write_into_their_input(seed):
    # the passes update fresh arrays in place; the box they read, alone
    # or stacked, keeps its bytes and stays read-only
    rng = np.random.default_rng(seed)
    net = random_net(rng, max_width=20, max_layers=2 + seed)
    boxes = [random_box(rng, net.input_dim) for _ in range(3)]
    for box in boxes + [Box.stack(np.array([b.ends for b in boxes]))]:
        before = box.ends.tobytes()
        fr = symbolic_forward(net, box)
        naive_forward(net, box)
        backward_gradient(net, fr.masks)
        iv_bisect(box, np.zeros(box.ends.shape[:-2], dtype=int))
        assert box.ends.tobytes() == before
        assert not box.ends.flags.writeable


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
            assert subset_of(s, n, _tol(n))
            assert np.all(ys[:, i] >= s.lo) and np.all(ys[:, i] <= s.hi)


def test_inclusion_isotonicity_forward():
    rng = np.random.default_rng(5)
    for _ in range(20):
        net = random_net(rng)
        outer = random_box(rng, net.input_dim)
        lo, hi = outer.lo, outer.hi
        mid = (lo + hi) / 2
        inner = Box((lo + mid) / 2, (hi + mid) / 2)
        fo = symbolic_forward(net, outer)
        fi = symbolic_forward(net, inner)
        for i in range(net.output_dim):
            assert subset_of(fi.out_bounds[i], fo.out_bounds[i], _tol(fo.out_bounds[i]))


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
