"""The engine evaluates boxes in stacks (waves). A box's bounds, masks,
rows and Jacobian must not depend on the boxes stacked with it, and the
search must depend neither on how many boxes a wave holds nor on the
children a wave evaluates ahead."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from relucheck import engine
from relucheck.data import shipped_path
from relucheck.engine import Config, Status, SubStatus, enumerate_regions, verify
from relucheck.gradients import backward_gradient
from relucheck.intervals import Box, IntervalOverflowError
from relucheck.network import Network, eval_concrete_batch
from relucheck.propagate import naive_forward, symbolic_forward
from relucheck.properties import DiffLE, InputSpec, Not, Or, OutLE, parse_property
from relucheck.symbolic import bounds_of_rows

from conftest import (
    exact_outputs,
    make_net,
    plan_another_dim,
    random_box,
    random_net,
    sample_points,
    without_attack,
)
from test_properties import _exact_truth

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


def stack_of(boxes):
    return Box.stack(np.array([b.ends for b in boxes]))


def _boxes(rng, d, n):
    boxes = [random_box(rng, d, min_width=0.0, max_width=3.0) for _ in range(n)]
    # some point boxes and some very thin ones
    boxes[0] = Box(boxes[0].lo, boxes[0].lo)
    if n > 1:
        boxes[1] = Box(boxes[1].lo, boxes[1].lo + 1e-9)
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
    stack = stack_of(boxes)
    sym = symbolic_forward(net, stack)
    nai = naive_forward(net, stack)
    jac = backward_gradient(net, sym.masks)
    for b, box in enumerate(boxes):
        one = symbolic_forward(net, box)
        assert_same_bits(sym.lo[b], one.lo)
        assert_same_bits(sym.hi[b], one.hi)
        assert_lazy_bounds(one)
        assert_same_bits(sym.rows[b], one.rows)
        for got, want in zip(sym.masks, one.masks):
            assert_same_bits(got[b], want)
        J = backward_gradient(net, one.masks)
        assert_same_bits(jac[b, 0], J[0])
        assert_same_bits(jac[b, 1], J[1])
        alone = naive_forward(net, box)
        assert_same_bits(nai.lo[b], alone.lo)
        assert_same_bits(nai.hi[b], alone.hi)
    assert_lazy_bounds(sym)


def assert_lazy_bounds(fr):
    """A symbolic result's `lo` and `hi`, read once and kept, are the bits
    `bounds_of_rows` gives its output rows."""
    lo, hi = bounds_of_rows(fr.rows, fr.operand)
    assert_same_bits(fr.lo, lo[..., 0, :])
    assert_same_bits(fr.hi, hi[..., 1, :])
    assert fr.lo is fr.lo and fr.hi is fr.hi


def test_lazy_bounds_of_an_overflowing_box_raise():
    # output 0 is 1e300 x over x in [0, 1e10], past the float range; the
    # pass bounds no output, so only a read of the bounds raises
    net = make_net([np.eye(1), [[1e300], [1.0]]])
    huge, small = Box([0.0], [1e10]), Box([0.0], [1.0])
    for box in (huge, stack_of([small, huge])):
        with np.errstate(over="ignore", invalid="ignore"):
            fr = symbolic_forward(net, box)
            for end in ("lo", "hi"):
                with pytest.raises(IntervalOverflowError):
                    getattr(fr, end)
    assert np.isfinite(symbolic_forward(net, small).hi).all()


def test_mask_layers_count_over_a_stack(demo_net):
    boxes = [Box([-10, 1], [6, 5]), Box([4, 1], [6, 5])]
    fr = symbolic_forward(demo_net, stack_of(boxes))
    counts = [symbolic_forward(demo_net, b).masks.layers[0].count(2) for b in boxes]
    assert fr.masks.layers[0].count(2) == sum(counts) == 2


def _verdict_key(v):
    cex = None if v.counterexample is None else bits(np.asarray(v.counterexample, dtype=np.float64))
    s = v.stats
    return v.status, cex, s.nodes_explored, s.max_depth, s.leaves, s.attack_hits


def _leaves_key(report):
    return [
        (bits(box.lo), bits(box.hi), status, None if cex is None else bits(cex))
        for box, status, cex in report.leaves
    ]


def _runs(monkeypatch, net, spec, cfg):
    """(verdict key, enumerate leaves) at the default wave cap, at 1, and
    at the default with plans that name another dim than the default
    planner (`plan_another_dim`), so that most planned children are freed."""
    out = []
    for cap, replan in ((WAVE, False), (1, False), (WAVE, True)):
        with monkeypatch.context() as m:
            m.setattr(engine, "WAVE", cap)
            if replan:
                plan_another_dim(m)
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
            full, single, replanned = _runs(monkeypatch, demo_net, spec, cfg)
            assert full == single == replanned, (name, cfg)


def test_wave_size_does_not_change_shipped_property_results(monkeypatch):
    # on the nets of seeds 0, 4 and 6 the root attack decides some of the
    # verify runs (on seed 4 that of phi6, which has two regions)
    hits = 0
    for seed in (5, 0, 4, 6):
        net = acas_net(np.random.default_rng(seed))
        for name in PROPS:
            with open(shipped_path(name), "rb") as f:
                spec = parse_property(f, num_outputs=5)
            full, single, replanned = _runs(monkeypatch, net, spec, Config(max_depth=4, timeout=600.0))
            assert full == single == replanned, (seed, name)
            hits += full[0][-1]  # the verdict key ends with attack_hits
    assert hits


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
            full, single, replanned = _runs(monkeypatch, net, spec, Config(max_depth=7, mode=mode))
            assert full == single == replanned, (constraint, mode)


def _holds_over(net, c, box) -> bool:
    """Whether c holds over the whole box in exact arithmetic, by Kleene's
    rule: an Or where one of its arguments does, a literal where it holds
    at every vertex. The net is affine, so each literal's value is affine
    in the input and takes its extremes at vertices."""
    if isinstance(c, Or):
        return any(_holds_over(net, a, box) for a in c.args)
    vertices = itertools.product(*zip(box.lo.tolist(), box.hi.tolist()))
    return all(_exact_truth(c, exact_outputs(net, x)) for x in vertices)


def _volume(box) -> Fraction:
    """The box's exact volume."""
    volume = Fraction(1)
    for lo, hi in zip(box.lo.tolist(), box.hi.tolist()):
        volume *= Fraction(hi) - Fraction(lo)
    return volume


def _inside(x, box) -> bool:
    return bool((box.lo <= x).all() and (x <= box.hi).all())


@pytest.mark.parametrize(
    "constraint",
    [
        OutLE(0, 3.5),
        OutLE(0, 3.0),
        DiffLE(0, 1, 4.5),
        Or((OutLE(0, 2.5), OutLE(1, 0.5))),
        Or((OutLE(0, 2.0), OutLE(1, 0.5))),
        Not(OutLE(1, -1.75)),
        Not(OutLE(1, -1.0)),
    ],
    ids=repr,
)
def test_search_on_a_net_without_a_hidden_layer(monkeypatch, constraint):
    # an affine net has one Jacobian for all boxes, which the search uses
    # for every box of a stack. y_0 - y_1 over [0, 1]^3 is [-1.75, 4.25],
    # so its naive bound needs splits; neither literal of the first Or
    # holds over [0, 1]^3, but the Or does, so it needs splits in both modes
    net = make_net([[[1.0, 2.0, -1.0], [0.5, -1.0, 1.5]]], [[0.25, -0.5]])
    regions = (Box([0.0] * 3, [1.0] * 3), Box([-1.0, 0.0, 1.0], [0.0, 1.0, 2.0]))
    spec = (InputSpec(regions), constraint)
    for mode in ("symbolic", "naive"):
        cfg = Config(max_depth=10, mode=mode)
        full, single, replanned = _runs(monkeypatch, net, spec, cfg)
        assert full == single == replanned, mode
        v, report = verify(net, spec, cfg), enumerate_regions(net, spec, cfg)
        # the leaves tile the regions, each secure one holds exactly, and
        # each counterexample, in its leaf, violates exactly
        assert sum(_volume(b) for b, _, _ in report.leaves) == 2
        for box, status, cex in report.leaves:
            assert any(_inside(box.lo, r) and _inside(box.hi, r) for r in regions)
            if status is SubStatus.SECURE_SUB:
                assert _holds_over(net, constraint, box), (mode, box)
            if status is SubStatus.INSECURE_SUB:
                assert _inside(cex, box)
                assert not _exact_truth(constraint, exact_outputs(net, cex))
        secure = {s for _, s, _ in report.leaves} == {SubStatus.SECURE_SUB}
        assert (v.status is Status.SECURE) == secure, mode
        if v.status is Status.INSECURE:
            assert any(_inside(v.counterexample, r) for r in regions)
            assert not _exact_truth(constraint, exact_outputs(net, v.counterexample))


def test_reusing_rows_keeps_a_pending_counterexample(monkeypatch):
    # y = relu(x - 10) is 0 over [0, 1], where rounded-out bounds never
    # prove y <= 0 and no sample violates it, so that region is split down
    # to max_depth. The second wave finds the midpoint 10.125 of the upper
    # half of [9, 10.5] to violate; that leaf stays pending while the cursor
    # consumes the 2047 nodes of [0, 1], whose rows the run reuses as it
    # goes. The root attack is off, so that the counterexample is one that
    # bisection finds.
    without_attack(monkeypatch)
    net = make_net([[[1.0]], [[1.0]]], [[-10.0], [0.0]])
    spec = (InputSpec((Box([9], [10.5]), Box([0], [1]))), OutLE(0, 0.0))
    v = verify(net, spec, Config(mode="naive", max_depth=10))
    assert v.status is Status.INSECURE and v.counterexample.tolist() == [10.125]
    assert v.stats.nodes_explored == 2049



def test_an_insecure_adopted_child_leaves_no_row_pending(monkeypatch):
    # y = x_1 <= 0.7 over [0, 1]^2 in naive mode: the root splits on dim 0,
    # and the next wave evaluates its right child [0.5, 1] x [0, 1] with
    # the children of its plan, dim 1. The upper one has the violating
    # midpoint (0.75, 0.75), and the right child splits on dim 1 and adopts
    # it, so the run ends at that child, its third node, with no row pending.
    without_attack(monkeypatch)
    waves = _record_waves(monkeypatch)
    net = make_net([[[0.0, 1.0]]])
    spec = (InputSpec((Box([0.0, 0.0], [1.0, 1.0]),)), OutLE(0, 0.7))
    v = verify(net, spec, Config(mode="naive", max_depth=6))
    assert v.status is Status.INSECURE and v.counterexample.tolist() == [0.75, 0.75]
    assert v.stats.nodes_explored == 3
    assert len(waves) == 2 and waves[-1][1].pending == []


def _sampled_case(seed):
    """A random 3-input net, two random regions, and output 0 at 2000
    uniform points of each region."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, d=3, m=2, max_width=16, max_layers=3)
    boxes = tuple(random_box(rng, 3, min_width=0.5, max_width=2.0) for _ in range(2))
    y = np.concatenate([eval_concrete_batch(net, sample_points(rng, b, 2000))[:, 0] for b in boxes])
    return net, boxes, y


def _record_waves(monkeypatch):
    """Wrap `_Run.process`: the returned list gets each wave's boxes, by
    their bits and depth, the run that took it, and how much the wave
    raised the run's `boxes_bounded`."""
    waves = []
    process = engine._Run.process

    def recorded(run, rows):
        boxes, bounded = [(bits(run.ends[r]), run.depth[r]) for r in rows], run.stats.boxes_bounded
        process(run, rows)
        waves.append((boxes, run, run.stats.boxes_bounded - bounded))

    monkeypatch.setattr(engine._Run, "process", recorded)
    return waves


@pytest.mark.parametrize("seed", (0, 4, 7))
def test_waves_take_each_unevaluated_row_once_in_depth_first_order(monkeypatch, seed):
    # a wave-size-independent result does not show a queue that drops,
    # repeats or reorders rows, since the cursor takes the tree's order
    # anyway. So each wave's boxes are recorded: at every wave size each
    # box is evaluated once, and a wave takes its boxes in the order the
    # cursor reaches them, which WAVE = 1 gives.
    net, boxes, y = _sampled_case(seed)
    y_hi = max(symbolic_forward(net, b).hi[0] for b in boxes)
    # just above the sampled maximum, so that proving it takes splits
    spec = (InputSpec(boxes), OutLE(0, float(y.max() + 0.05 * (y_hi - y.max()))))
    waves = _record_waves(monkeypatch)
    runs = {
        "verify": lambda: verify(net, spec, Config(max_depth=12)).status,
        "enumerate": lambda: enumerate_regions(net, spec, Config(max_depth=6, mode="naive")).stats.nodes_explored,
    }
    for name, run in runs.items():
        by_cap = {}
        for cap in (1, 4, 256):
            monkeypatch.setattr(engine, "WAVE", cap)
            waves.clear()
            by_cap[cap] = run(), [wave for wave, _, _ in waves]
        result, single = by_cap[1]
        if name == "verify":
            assert result is Status.SECURE
        order = [wave[0] for wave in single]
        assert all(len(wave) == 1 for wave in single)
        assert len(set(order)) == len(order) > 20, name
        position = {key: k for k, key in enumerate(order)}
        for cap, (got, taken) in by_cap.items():
            assert got == result, (name, cap)
            keys = [key for wave in taken for key in wave]
            assert sorted(keys) == sorted(order), (name, cap)
            for wave in taken:
                at = [position[key] for key in wave]
                assert at == sorted(at), (name, cap)
            if cap > 1:
                assert max(map(len, taken)) > 1, (name, cap)


@pytest.mark.parametrize("cap", (1, 4, 256))
def test_an_insecure_verify_run_leaves_no_row_pending(monkeypatch, cap):
    # the run stops at its first insecure leaf, so the rows after that leaf
    # leave `pending` when a wave finds it; every row left there is one the
    # cursor reaches, and evaluates or consumes, before it stops. The root
    # attack is off, so that bisection finds the leaf after a few hundred
    # nodes.
    without_attack(monkeypatch)
    net, boxes, y = _sampled_case(4)
    spec = (InputSpec(boxes), OutLE(0, float(y.max() - 0.05 * (y.max() - y.min()))))
    waves = _record_waves(monkeypatch)
    monkeypatch.setattr(engine, "WAVE", cap)
    v = verify(net, spec, Config(max_depth=12))
    assert v.status is Status.INSECURE and v.stats.nodes_explored > 100
    assert (max(len(wave) for wave, _, _ in waves) > 1) == (cap > 1)
    assert waves[-1][1].pending == []


def test_only_a_row_that_can_split_gets_a_plan(monkeypatch):
    # a row at max_depth, or no wider than the precision in every dim, is
    # a leaf if its wave leaves it undecided, so children planned for it
    # would be bounded for nothing. The plans name another dim than the
    # row's own split, so that most children are new rows of later waves,
    # the deepest and thinnest ones included.
    net, boxes, y = _sampled_case(4)
    spec = (InputSpec(boxes), OutLE(0, float(y.max())))
    plan_another_dim(monkeypatch)
    process = engine._Run.process
    planned, unplanned = [], []

    def checked(run, rows, *args):
        for r in rows:
            can_split = run.depth[r] < run.max_depth
            can_split &= bool((Box.stack(run.ends[[r]]).widths() > run.cfg.precision).any())
            (planned if run.plan[r] >= 0 else unplanned).append(can_split)
        return process(run, rows, *args)

    monkeypatch.setattr(engine._Run, "process", checked)
    for cfg in (Config(max_depth=6), Config(precision=0.2, mode="naive")):
        enumerate_regions(net, spec, cfg)
    assert len(planned) > 100 and all(planned)
    assert unplanned.count(False) > 100


def test_a_full_depth_tree_takes_three_waves(monkeypatch):
    # y_0 - y_0 <= 0 holds at every point, but its literal row is 0 and its
    # rounded-out bound is positive, so no box proves it and the tree goes
    # to max_depth 4: 31 boxes. Level by level they would take 5 waves; a
    # wave that evaluates each row with its planned children takes 3, of
    # 1 (the root), 2 + 4 and 8 + 16 boxes.
    net = Network(acas_net(np.random.default_rng(0)).layers)
    spec = (InputSpec((Box([-0.3] * 5, [0.3] * 5),)), DiffLE(0, 0, 0.0))
    waves = _record_waves(monkeypatch)
    v = verify(net, spec, Config(max_depth=4))
    assert v.status is Status.UNKNOWN and v.stats.nodes_explored == 31
    assert [len(wave) for wave, _, _ in waves] == [1, 2, 8]
    assert [bounded for _, _, bounded in waves] == [1, 6, 24]
    assert (v.stats.waves, v.stats.boxes_bounded) == (3, 31)


def test_naive_mode_adopts_every_plan(monkeypatch):
    # a naive split is the widest splittable dim, which a child's plan
    # names from its own widths, so every planned row that splits adopts
    # the children its wave evaluated. The run enumerates, so that no
    # counterexample stops a wave short of a planned child.
    net, boxes, y = _sampled_case(0)
    spec = (InputSpec(boxes), OutLE(0, float(np.median(y))))
    process = engine._Run.process
    split = []  # per planned row that split: whether its children were evaluated

    def recorded(run, rows, *args):
        planned = [r for r in rows if run.plan[r] >= 0]
        process(run, rows, *args)
        for r in planned:
            if type(run.outcome[r]) is list:
                split.append(all(run.outcome[c] is not None for c in run.outcome[r]))

    monkeypatch.setattr(engine._Run, "process", recorded)
    report = enumerate_regions(net, spec, Config(max_depth=8, mode="naive"))
    assert report.stats.nodes_explored > 100
    assert len(split) > 20 and all(split)

