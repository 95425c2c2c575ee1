"""Soundness against an exact oracle, in both modes.

`bench/exact.py`'s `ExactNet` evaluates a network in exact rational
arithmetic, apart from the package. Every bound the passes compute must
hold the exact outputs, no run may answer Secure where the exact outputs
violate the property, and every Jacobian sign the monotonicity reduction
trusts must be the sign of the exact derivatives. Two tests also run
their nets with the error terms set to 0, to show that the oracle sees
what the terms mend.
"""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from relucheck.engine import Config, Status, verify
from relucheck.gradients import backward_gradient
from relucheck.intervals import Box
from relucheck.network import ErrorBound, Layer, Network
from relucheck.propagate import _first_layer_box, naive_forward, symbolic_forward
from relucheck.properties import And, DiffLE, InputSpec, OutGE, OutLE, SoundCheck

from conftest import random_net

BENCH = Path(__file__).resolve().parents[1] / "bench"
PASSES = {"symbolic": symbolic_forward, "naive": naive_forward}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


exact = _load("exact")


def exact_net(net: Network):
    """The `ExactNet` of a network."""
    norm = None
    if net.has_normalization:
        norm = [(Fraction(float(m)), Fraction(float(r))) for m, r in zip(net.norm_mean, net.norm_range)]
    return exact.ExactNet([(l.W.tolist(), l.b.tolist()) for l in net.layers], norm)


def _deep_nets():
    """60 (net, point) pairs, each drawn from one default_rng(0) in this
    order: the input count (1-3), the hidden layer count (3-5), the hidden
    widths (20-60; 3 outputs), then W = 3 N(0, 1) and b = N(0, 1) per
    layer, and last an N(0, 1) point. Large weights on deep, wide layers
    make the float error large."""
    rng = np.random.default_rng(0)
    nets = []
    for _ in range(60):
        d, hidden = int(rng.integers(1, 4)), int(rng.integers(3, 6))
        sizes = [d] + [int(rng.integers(20, 61)) for _ in range(hidden)] + [3]
        layers = []
        for a, b in zip(sizes, sizes[1:]):
            W = 3.0 * rng.normal(size=(b, a))
            layers.append(Layer(W, rng.normal(size=b)))
        nets.append((Network(tuple(layers)), rng.normal(size=d)))
    return nets


DEEP_NETS = _deep_nets()


def without_terms(monkeypatch):
    """Set every error term to 0: the bounds are then those of float
    arithmetic rounded to nearest, with no allowance for its error."""
    terms = ErrorBound.terms

    def zero(self, amax, naive=False):
        return [0.0 * t for t in terms(self, amax, naive)]

    monkeypatch.setattr(ErrorBound, "terms", zero)


def misses(analyse, net, box, points) -> list:
    """The (point, output) pairs whose exact output lies outside the bounds
    `analyse` gives over `box`."""
    fr, oracle = analyse(net, box), exact_net(net)
    lo, hi = fr.lo.tolist(), fr.hi.tolist()
    out = []
    for p, x in enumerate(points):
        for i, y in enumerate(oracle.forward(list(x))):
            if not Fraction(lo[i]) <= y <= Fraction(hi[i]):
                out.append((p, i))
    return out


@pytest.mark.parametrize("mode", PASSES)
def test_point_boxes_hold_their_exact_outputs(mode, monkeypatch):
    analyse = PASSES[mode]
    assert [k for k, (net, x) in enumerate(DEEP_NETS) if misses(analyse, net, Box(x, x), [x])] == []
    # without the terms, both modes miss the exact output of most of them
    without_terms(monkeypatch)
    missed = [k for k, (net, x) in enumerate(DEEP_NETS) if misses(analyse, net, Box(x, x), [x])]
    assert len(missed) > 20


@pytest.mark.parametrize("mode", PASSES)
def test_box_vertices_hold_their_exact_outputs(mode):
    # boxes around the points, of widths from 1e-6 to 1, each checked at
    # every vertex (d <= 3) and at its midpoint
    rng = np.random.default_rng(1)
    for net, x in DEEP_NETS[:30]:
        d = len(x)
        w = 10.0 ** rng.uniform(-6.0, 0.0, size=d)
        box = Box(x - w, x + w)
        sides = np.array(np.meshgrid(*[[0, 1]] * d)).reshape(d, -1).T
        vertices = np.where(sides, box.hi, box.lo)
        assert misses(PASSES[mode], net, box, [*vertices, box.midpoint()]) == []


def test_threshold_at_the_bound_without_terms_is_never_secure(monkeypatch):
    # where the exact output of a point box lies above the bound computed
    # without the terms, `le i c` with c that bound is false at the point:
    # no run, in either mode, may prove it
    thresholds = []
    with monkeypatch.context() as m:
        without_terms(m)
        for net, x in DEEP_NETS:
            for mode, analyse in PASSES.items():
                hi = analyse(net, Box(x, x)).hi
                for i, y in enumerate(exact_net(net).forward(list(x))):
                    if y > Fraction(float(hi[i])):
                        thresholds.append((net, x, i, float(hi[i])))
    assert len(thresholds) > 100
    for net, x, i, c in thresholds:
        spec = (InputSpec((Box(x, x),)), OutLE(i, c))
        for mode in PASSES:
            assert verify(net, spec, Config(mode=mode, max_depth=2)).status is not Status.SECURE


def test_cancellation_net_is_not_secure():
    # h = relu(x0 + x1 - x2) at (1e16, 1, 1e16) is exactly 1, and 0 in
    # float64: `le 0 0.5` is false there
    net = Network((Layer([[1.0, 1.0, -1.0]], [0.0]), Layer([[1.0]], [0.0])))
    point = [1e16, 1.0, 1e16]
    assert exact_net(net).forward(point) == [1]
    spec = (InputSpec((Box(point, point),)), OutLE(0, 0.5))
    for mode in PASSES:
        assert verify(net, spec, Config(mode=mode, max_depth=4)).status is not Status.SECURE


def test_normalization_net_is_not_secure():
    # 1-1-1 with norm 0,3: h = relu(2^20 x_n - 2^20 fl(1/3)) at the raw
    # point 1, where x_n = 1/3 exactly and fl(1/3) < 1/3, so the exact
    # output is about 1.9e-11 and `le 0 1e-323` is false
    net = Network(
        (Layer([[2.0**20]], [-(2.0**20) / 3.0]), Layer([[1.0]], [0.0])), np.array([0.0]), np.array([3.0])
    )
    (y,) = exact_net(net).forward([1.0])
    assert Fraction(1e-323) < y < Fraction(2e-11)
    spec = (InputSpec((Box([1.0], [1.0]),)), OutLE(0, 1e-323))
    for mode in PASSES:
        assert verify(net, spec, Config(mode=mode, max_depth=4)).status is not Status.SECURE


def test_normalized_box_holds_the_exact_normalized_ends():
    # the subtraction and the division of a normalization each round once;
    # the 2 ULPs the passes move each normalized end by hold its real
    # value, where 1 ULP does not. Ranges of 3 * 2^k make the division
    # inexact
    rng = np.random.default_rng(2)
    outside = {1: 0, 2: 0}
    for _ in range(40):
        d = 6
        mean = rng.normal(size=d) * 10.0 ** rng.integers(-3, 6, size=d)
        scale = rng.uniform(0.5, 2.0, size=d) * 10.0 ** rng.integers(-3, 6, size=d)
        scale[:3] = 3.0 * 2.0 ** rng.integers(-10, 10, size=3)
        net = Network((Layer(np.ones((1, d)), [0.0]),), mean, scale)
        for x in mean + rng.normal(size=(50, d)) * scale * 10.0 ** rng.integers(-8, 3, size=(50, d)):
            box, _ = _first_layer_box(net, Box(x, x), naive=True)
            near = net.normalize(x)
            for j in range(d):
                real = (Fraction(x[j]) - Fraction(mean[j])) / Fraction(scale[j])
                outside[2] += not Fraction(box.lo[j]) <= real <= Fraction(box.hi[j])
                one = np.nextafter(near[j], -np.inf), np.nextafter(near[j], np.inf)
                outside[1] += not Fraction(one[0]) <= real <= Fraction(one[1])
    assert outside[2] == 0 and outside[1] > 0


def exact_jacobian(oracle, x):
    """The exact Jacobian (m, d) of the outputs at x, through x's own
    activation pattern, from the oracle's integer layers; None where a
    unit's pre-activation is exactly 0, where it has none."""
    xs = [Fraction(v) for v in x]
    den = math.lcm(*(v.denominator for v in xs))
    nums = [v.numerator * (den // v.denominator) for v in xs]
    grad = [[int(i == j) for j in range(len(xs))] for i in range(len(xs))]
    gden = 1
    last = len(oracle.layers) - 1
    for k, (rows, bias, wden) in enumerate(oracle.layers):
        nums = [sum(w * n for w, n in zip(row, nums)) + c * den for row, c in zip(rows, bias)]
        grad = [[sum(w * g[j] for w, g in zip(row, grad)) for j in range(len(xs))] for row in rows]
        den *= wden
        gden *= wden
        if k != last:
            if 0 in nums:
                return None
            grad = [g if n > 0 else [0] * len(xs) for g, n in zip(grad, nums)]
            nums = [n if n > 0 else 0 for n in nums]
    return [[Fraction(v, gden) for v in g] for g in grad]


def test_trusted_jacobian_signs_are_the_exact_ones():
    # over small boxes the masks are mostly stable and the reduction trusts
    # many signs; each trusted sign of a literal's derivative must be the
    # sign of its exact derivative at every sampled point of the box
    rng = np.random.default_rng(3)
    trusted = 0
    for _ in range(40):
        net = random_net(rng, m=3, max_width=12, max_layers=4, weight_scale=3.0)
        d = net.input_dim
        check = SoundCheck(And((OutLE(0, 0.0), OutGE(1, 0.0), DiffLE(2, 0, 0.0))), 3)
        margin = check.abs @ net.error_bound.jacobian
        x = rng.normal(size=d)
        box = Box(x - 1e-3, x + 1e-3)
        J = backward_gradient(net, symbolic_forward(net, box).masks)
        (mono,) = check.monotone_dims(J[np.newaxis], np.ones((1, d), dtype=bool), margin)
        if not mono.any():
            continue
        # a trusted derivative rises where its interval's lower end, the
        # lower ends of the rows' +1 entries less the upper ends of their -1
        # entries, is above 0, and falls where its upper end is below 0
        rising = np.maximum(check.A, 0.0) @ J[0] + np.minimum(check.A, 0.0) @ J[1] > 0.0
        oracle = exact_net(net)
        for p in rng.uniform(box.lo, box.hi, size=(5, d)):
            grad = exact_jacobian(oracle, p)
            if grad is None:
                continue
            for j in np.flatnonzero(mono):
                for k, a in enumerate(check.A.tolist()):
                    slope = sum(Fraction(c) * grad[i][j] for i, c in enumerate(a))
                    assert slope > 0 if rising[k, j] else slope < 0
                    trusted += 1
    assert trusted > 200
