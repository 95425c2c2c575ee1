from fractions import Fraction

import numpy as np
import pytest

from relucheck import engine
from relucheck.data import shipped_path
from relucheck.intervals import Box, Interval
from relucheck.network import Layer, Network, load_network


@pytest.fixture(scope="session")
def demo_net() -> Network:
    """2 -> 2 -> 1 example net: W1=[[2,3],[1,1]], W2=[[1,-1]], zero biases."""
    with open(shipped_path("demonet.nnl"), "rb") as f:
        return load_network(f)


@pytest.fixture(scope="session")
def demo_box() -> Box:
    return Box([4.0, 1.0], [6.0, 5.0])


def make_net(weights, biases=None) -> Network:
    layers = []
    for k, W in enumerate(weights):
        W = np.asarray(W, dtype=np.float64)
        b = np.zeros(W.shape[0]) if biases is None else np.asarray(biases[k], dtype=np.float64)
        layers.append(Layer(W, b))
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
    return Box(center - half, center + half)


def subset_of(a: Interval, b: Interval, slack: float = 0.0) -> bool:
    """Whether a lies inside b widened by slack on both sides."""
    return b.lo - slack <= a.lo and a.hi <= b.hi + slack


def sample_points(rng, box: Box, n: int) -> np.ndarray:
    lo, hi = box.lo, box.hi
    return rng.uniform(lo, hi, size=(n, len(box)))


def without_attack(monkeypatch):
    """Turn the root attack off: it finds no counterexample."""
    monkeypatch.setattr(engine._Run, "_attack", lambda self, rows, box: {})


def plan_another_dim(monkeypatch):
    """Move each child's plan to the next dim after the one the planner
    names, cyclically, that is wider than the precision, so that a row
    with more than one such dim never splits on its plan."""
    plan_children = engine._Run._plan_children

    def another(self, new, J):
        plan_children(self, new, J)
        d = self.ends.shape[-1]
        # the children's dims wider than the precision, in the order of `new`
        wide = engine.input_widths(Box.stack(self.ends[new]), self.scale) > self.cfg.precision
        for k, c in enumerate(new):
            j = self.plan[c]
            if j >= 0:
                self.plan[c] = next(i % d for i in range(j + 1, j + d + 1) if wide[k, i % d])

    monkeypatch.setattr(engine._Run, "_plan_children", another)


def exact_outputs(net: Network, x) -> list:
    """The outputs at the float point x in exact rational arithmetic."""
    v = [Fraction(float(a)) for a in x]
    if net.has_normalization:
        norm = zip(net.norm_mean, net.norm_range)
        v = [(a - Fraction(float(m))) / Fraction(float(r)) for a, (m, r) in zip(v, norm)]
    for k, layer in enumerate(net.layers):
        v = [
            sum((Fraction(float(w)) * a for w, a in zip(row, v)), Fraction(0)) + Fraction(float(b))
            for row, b in zip(layer.W, layer.b)
        ]
        if k < net.num_hidden:
            v = [max(a, Fraction(0)) for a in v]
    return v


def row_error(rows, box: Box, naive: bool = False) -> np.ndarray:
    """The documented rounding-error term (`network.ErrorBound`) of rows
    [c, k] over a box: that of the one-layer network whose weights and
    biases are their coefficients and constants. For a (2, n, d+1) layer
    of lower over upper rows, unit i takes the greater magnitude of its
    two rows. In naive mode, the term of a matvec whose weights are c."""
    c, k = np.abs(rows[..., :-1]), np.abs(rows[..., -1])
    if rows.ndim == 3:
        c, k = c.max(axis=0), k.max(axis=0)
    amax = np.maximum(np.abs(box.lo), np.abs(box.hi))
    return Network((Layer(c, k),)).error_bound.terms(amax, naive)[0]
