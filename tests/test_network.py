import json

import numpy as np
import pytest

from relucheck.intervals import Box
from relucheck.network import (
    Layer,
    Network,
    NetworkFormatError,
    eval_concrete,
    eval_concrete_batch,
    load_network,
)
from relucheck.propagate import naive_forward, symbolic_forward

from conftest import random_box, random_net, sample_points


def test_load_demo_net(demo_net):
    assert demo_net.input_dim == 2
    assert demo_net.output_dim == 1
    assert len(demo_net.layers) == 2
    np.testing.assert_array_equal(demo_net.layers[0].W, [[2, 3], [1, 1]])
    np.testing.assert_array_equal(demo_net.layers[1].W, [[1, -1]])


def test_load_empty_stream():
    with pytest.raises(NetworkFormatError):
        load_network(b"")


def test_load_shape_mismatch():
    text = "2 2 1 2\n2,2,1\n2,3\n1,1,9\n0,0\n1,-1\n0\n"
    with pytest.raises(NetworkFormatError):
        load_network(text)


def test_load_rejects_nan_weights():
    text = "1 2 1 2\n2,1\nnan,1\n0\n"
    with pytest.raises(NetworkFormatError):
        load_network(text)


def test_load_norm_line():
    text = "1 2 1 2\n2,1\nnorm: 1.0,2.0 0.0,4.0\n1,1\n0\n"
    net = load_network(text)
    assert net.has_normalization
    np.testing.assert_array_equal(net.norm_mean, [1.0, 0.0])
    np.testing.assert_array_equal(net.norm_range, [2.0, 4.0])
    # ((3-1)/2) + ((8-0)/4) = 1 + 2
    assert eval_concrete(net, [3.0, 8.0])[0] == pytest.approx(3.0)


def test_load_rejects_nonpositive_norm_range():
    text = "1 2 1 2\n2,1\nnorm: 0,0 0,1\n1,1\n0\n"
    with pytest.raises(NetworkFormatError):
        load_network(text)


def test_normalization_needs_both_mean_and_range():
    layer = Layer(np.eye(2), np.zeros(2))
    for mean, rng in ((np.zeros(2), None), (None, np.ones(2))):
        with pytest.raises(NetworkFormatError, match="both mean and range"):
            Network((layer,), mean, rng)


def test_json_roundtrip(demo_net):
    doc = {
        "layers": [
            {"W": demo_net.layers[0].W.tolist(), "b": [0.0, 0.0]},
            {"W": demo_net.layers[1].W.tolist(), "b": [0.0]},
        ]
    }
    net = load_network(json.dumps(doc))
    assert eval_concrete(net, [4, 1])[0] == 6.0


# JSON networks whose document, norm block or layer list is malformed;
# each must raise NetworkFormatError (CLI exit 4)
_TWO_TWO_ONE = [{"W": [[1, 0], [0, 1]], "b": [0, 0]}, {"W": [[1, -1]], "b": [0]}]
MALFORMED_JSON = [
    json.dumps({"layers": _TWO_TWO_ONE, "norm": {"mean": "abc", "range": [1, 1]}}),
    json.dumps({"layers": _TWO_TWO_ONE, "norm": {"mean": [0, 0]}}),
    json.dumps({"layers": _TWO_TWO_ONE, "norm": [0, 1]}),
    json.dumps({"layers": 5}),
    '{"layers": [',
    json.dumps({"layers": []}),
    json.dumps({"layers": [{"b": [0, 0]}, _TWO_TWO_ONE[1]]}),
    json.dumps({"layers": [{"W": [[1, 0], [0, 1]], "b": [0]}, _TWO_TWO_ONE[1]]}),
    json.dumps({"layers": _TWO_TWO_ONE, "norm": {"mean": [0], "range": [1, 1]}}),
    json.dumps({"layers": [{"W": [[]], "b": [0]}]}),
]


def test_json_rejects_malformed_documents():
    for text in MALFORMED_JSON:
        with pytest.raises(NetworkFormatError):
            load_network(text)


def test_json_rejects_bad_activation():
    # a declared activation must be the one the layer's position gives it:
    # relu on a hidden layer, identity on the last
    layer = {"W": [[1.0]], "b": [0.0]}
    for declared in (["tanh"], ["identity", None], [None, "relu"]):
        layers = [layer if a is None else dict(layer, activation=a) for a in declared]
        with pytest.raises(NetworkFormatError):
            load_network(json.dumps({"layers": layers}))
    layers = [dict(layer, activation="relu"), dict(layer, activation="identity")]
    assert load_network(json.dumps({"layers": layers})).num_hidden == 1


def test_eval_demo_points(demo_net):
    assert eval_concrete(demo_net, [4, 1])[0] == 6.0
    assert eval_concrete(demo_net, [6, 5])[0] == 16.0


def test_eval_identity_layer():
    net = Network((Layer(np.eye(3), np.zeros(3)),))
    x = np.array([1.5, -2.0, 0.25])
    np.testing.assert_array_equal(eval_concrete(net, x), x)


def test_eval_dim_mismatch(demo_net):
    with pytest.raises(ValueError):
        eval_concrete(demo_net, [1.0])


def test_layer_chain_validation():
    with pytest.raises(NetworkFormatError):
        Network(
            (
                Layer(np.ones((3, 2)), np.zeros(3)),
                Layer(np.ones((1, 4)), np.zeros(1)),
            )
        )


def test_interval_extension_agrees_on_points():
    """F([x,x]) = f(x) up to outward rounding, both modes."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        net = random_net(rng)
        b = random_box(rng, net.input_dim)
        for p in sample_points(rng, b, 5):
            y = eval_concrete(net, p)
            point = Box(p, p)
            for fr in (naive_forward(net, point), symbolic_forward(net, point)):
                for i, iv in enumerate(fr.out_bounds):
                    # concrete eval sums in a different order, so allow
                    # a small accumulated-roundoff margin
                    tol = 1e-12 * max(abs(y[i]), 1.0)
                    assert iv.lo - tol <= y[i] <= iv.hi + tol


def test_batch_matches_single(demo_net):
    pts = np.array([[4.0, 1.0], [6.0, 5.0], [5.0, 3.0]])
    ys = eval_concrete_batch(demo_net, pts)
    for p, y in zip(pts, ys):
        np.testing.assert_array_equal(eval_concrete(demo_net, p), y)
