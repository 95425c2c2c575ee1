"""The engine evaluates boxes in stacks (waves). A box's bounds, masks,
rows and Jacobian must not depend on the boxes stacked with it, and the
search must not depend on how many boxes a wave holds."""

import numpy as np
import pytest

from relucheck import engine
from relucheck.data import shipped_path
from relucheck.engine import Config, enumerate_regions, verify
from relucheck.gradients import backward_gradient
from relucheck.intervals import Box
from relucheck.network import Network
from relucheck.propagate import naive_forward, symbolic_forward
from relucheck.properties import parse_property

from conftest import make_net, random_box, random_net

PROPS = ["phi%d.prop" % k for k in range(1, 16)] + ["s1.prop", "s2.prop", "s3.prop"]
WAVE = engine.WAVE


def acas_net(rng):
    """A 5-50x6-5 net with ACAS-style input normalization."""
    sizes = [5] + [50] * 6 + [5]
    weights = [rng.normal(0.0, 1.0 / np.sqrt(a), size=(b, a)) for a, b in zip(sizes, sizes[1:])]
    biases = [rng.normal(0.0, 0.1, size=b) for b in sizes[1:]]
    net = make_net(weights, biases)
    mean = np.array([19791.091, 0.0, 0.0, 650.0, 600.0])
    rng_ = np.array([60261.0, 6.28318530718, 6.28318530718, 1100.0, 1200.0])
    return Network(net.layers, mean, rng_)


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def assert_same_bits(stacked, alone):
    assert stacked.shape == alone.shape
    assert bits(stacked) == bits(alone)


def _boxes(rng, d, n):
    boxes = [random_box(rng, d, min_width=0.0, max_width=3.0) for _ in range(n)]
    # some point boxes and some very thin ones
    boxes[0] = Box.from_arrays(boxes[0].lo, boxes[0].lo)
    if n > 1:
        boxes[1] = Box.from_arrays(boxes[1].lo, boxes[1].lo + 1e-9)
    return boxes


@pytest.mark.parametrize("seed", range(6))
def test_stacked_boxes_get_their_own_bits(seed):
    rng = np.random.default_rng(seed)
    if seed < 2:
        net = Network(acas_net(rng).layers)
        boxes = [random_box(rng, 5, min_width=0.0, max_width=0.5) for _ in range((1, 40)[seed])]
    else:
        net = random_net(rng, max_width=30, max_layers=5)
        boxes = _boxes(rng, net.input_dim, int(rng.integers(1, 301)))
    stack = Box.stack(boxes)
    sym = symbolic_forward(net, stack)
    nai = naive_forward(net, stack)
    jac = backward_gradient(net, sym.masks)
    for b, box in enumerate(boxes):
        one = symbolic_forward(net, box)
        assert_same_bits(sym.lo[b], one.lo)
        assert_same_bits(sym.hi[b], one.hi)
        assert_same_bits(sym.rows.stack[b], one.rows.stack)
        for got, want in zip(sym.masks, one.masks):
            assert_same_bits(got[b], want)
        J = backward_gradient(net, one.masks)
        assert_same_bits(jac.lo[b], J.lo)
        assert_same_bits(jac.hi[b], J.hi)
        alone = naive_forward(net, box)
        assert_same_bits(nai.lo[b], alone.lo)
        assert_same_bits(nai.hi[b], alone.hi)


def test_mask_layers_count_over_a_stack(demo_net):
    boxes = [Box.from_arrays([-10, 1], [6, 5]), Box.from_arrays([4, 1], [6, 5])]
    fr = symbolic_forward(demo_net, Box.stack(boxes))
    counts = [symbolic_forward(demo_net, b).masks.layers[0].count(2) for b in boxes]
    assert fr.masks.layers[0].count(2) == sum(counts) == 2


def _verdict_key(v):
    cex = None if v.counterexample is None else bits(np.asarray(v.counterexample, dtype=np.float64))
    return v.status, cex, v.stats.nodes_explored, v.stats.max_depth, v.stats.leaves


def _leaves_key(report):
    return [
        (bits(box.lo), bits(box.hi), status, None if cex is None else bits(cex))
        for box, status, cex in report.leaves
    ]


def _runs(monkeypatch, net, spec, cfg):
    """(verdict key, enumerate leaves) at the default wave cap and at 1."""
    out = []
    for cap in (WAVE, 1):
        monkeypatch.setattr(engine, "WAVE", cap)
        v = verify(net, spec, cfg)
        rep = enumerate_regions(net, spec, cfg)
        out.append((_verdict_key(v), _leaves_key(rep), rep.stats.nodes_explored))
    return out


def test_wave_size_does_not_change_demo_results(monkeypatch, demo_net):
    for name in ("le15.prop", "le20.prop"):
        with open(shipped_path(name), "rb") as f:
            spec = parse_property(f, num_outputs=1)
        for cfg in (
            Config(precision=0.05, max_depth=12),
            Config(precision=0.05, max_depth=12, mode="naive"),
            Config(max_depth=10, sample_strategy="corners"),
        ):
            full, single = _runs(monkeypatch, demo_net, spec, cfg)
            assert full == single, (name, cfg)


def test_wave_size_does_not_change_shipped_property_results(monkeypatch):
    net = acas_net(np.random.default_rng(5))
    for name in PROPS:
        with open(shipped_path(name), "rb") as f:
            spec = parse_property(f, num_outputs=5)
        full, single = _runs(monkeypatch, net, spec, Config(max_depth=4, timeout=600.0))
        assert full == single, name


@pytest.mark.parametrize("seed", range(4))
def test_wave_size_does_not_change_random_net_results(monkeypatch, seed):
    rng = np.random.default_rng(100 + seed)
    net = random_net(rng, d=3, m=2, max_width=16, max_layers=3)
    box = random_box(rng, 3, min_width=0.5, max_width=2.0)
    y = symbolic_forward(net, box)
    threshold = float(y.lo[0] + 0.7 * (y.hi[0] - y.lo[0]))
    lines = "\n".join(f"{a!r} {b!r}" for a, b in zip(box.lo.tolist(), box.hi.tolist()))
    text = f"domain:\n{lines}\nregion:\n" + "*\n" * 3 + "constraint:\n"
    for constraint in (f"le 0 {threshold!r}", "diffle 0 1 0.5", f"or(le 0 {threshold!r}, ge 1 0)"):
        spec = parse_property(text + constraint + "\n", num_outputs=2)
        for mode in ("symbolic", "naive"):
            full, single = _runs(monkeypatch, net, spec, Config(max_depth=7, mode=mode))
            assert full == single, (constraint, mode)
