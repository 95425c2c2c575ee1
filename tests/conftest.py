import numpy as np
import pytest

from relucheck.data import shipped_path
from relucheck.intervals import Box, Interval
from relucheck.network import Activation, Layer, Network, load_network


@pytest.fixture(scope="session")
def demo_net() -> Network:
    """2 -> 2 -> 1 example net: W1=[[2,3],[1,1]], W2=[[1,-1]], zero biases."""
    with open(shipped_path("demonet.nnl"), "rb") as f:
        return load_network(f)


@pytest.fixture(scope="session")
def demo_box() -> Box:
    return Box.from_arrays([4.0, 1.0], [6.0, 5.0])


def make_net(weights, biases=None) -> Network:
    layers = []
    n = len(weights)
    for k, W in enumerate(weights):
        W = np.asarray(W, dtype=np.float64)
        b = np.zeros(W.shape[0]) if biases is None else np.asarray(biases[k], dtype=np.float64)
        act = Activation.IDENTITY if k == n - 1 else Activation.RELU
        layers.append(Layer(W, b, act))
    return Network(tuple(layers))


def random_net(rng, d=None, m=None, max_width=20, max_layers=4, weight_scale=2.0) -> Network:
    """Random ReLU net: 2-4 layers, widths <= max_width, weights U[-s, s]."""
    n_layers = int(rng.integers(2, max_layers + 1))
    d = d if d is not None else int(rng.integers(2, 6))
    m = m if m is not None else int(rng.integers(1, 4))
    sizes = [d] + [int(rng.integers(2, max_width + 1)) for _ in range(n_layers - 1)] + [m]
    weights, biases = [], []
    for k in range(n_layers):
        weights.append(rng.uniform(-weight_scale, weight_scale, size=(sizes[k + 1], sizes[k])))
        biases.append(rng.uniform(-1.0, 1.0, size=sizes[k + 1]))
    return make_net(weights, biases)


def random_box(rng, d, min_width=0.1, max_width=2.0, center_scale=1.0) -> Box:
    center = rng.uniform(-center_scale, center_scale, size=d)
    half = rng.uniform(min_width / 2, max_width / 2, size=d)
    return Box.from_arrays(center - half, center + half)


def sample_points(rng, box: Box, n: int) -> np.ndarray:
    lo, hi = box.lo, box.hi
    return rng.uniform(lo, hi, size=(n, len(box)))
