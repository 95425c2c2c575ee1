import dataclasses
import json
from fractions import Fraction
import threading
import tracemalloc

import numpy as np
import pytest

from relucheck import engine, propagate
from relucheck.data import shipped_path
from relucheck.engine import (
    Config,
    Status,
    SubStatus,
    default_max_depth,
    enumerate_regions,
    verify,
    write_report,
)
from relucheck.intervals import Box, IntervalOverflowError, midpoint
from relucheck.network import DimensionMismatchError, Network, eval_concrete, load_network
from relucheck.propagate import naive_forward, symbolic_forward
from relucheck.properties import (
    And,
    DiffLE,
    InputSpec,
    IsMax,
    Not,
    Or,
    OutGE,
    OutLE,
    SoundCheck,
    check_concrete,
    parse_property,
)

from conftest import exact_outputs, make_net, plan_another_dim, without_attack
from test_batch import PROPS, _verdict_key, acas_net


@pytest.fixture(scope="module")
def le20(demo_net):
    with open(shipped_path("le20.prop"), "rb") as f:
        return parse_property(f, num_outputs=demo_net.output_dim)


@pytest.fixture(scope="module")
def le15(demo_net):
    with open(shipped_path("le15.prop"), "rb") as f:
        return parse_property(f, num_outputs=demo_net.output_dim)


def test_default_max_depth():
    regions = Box([0, 0], [4, 1])
    # ceil(log2(4 / 0.7)) * 2 = 6
    assert default_max_depth(regions, 0.7) == 6
    assert default_max_depth(regions, 100.0) == 1


def test_verify_secure_symbolic_no_split(demo_net, le20):
    v = verify(demo_net, le20, Config())
    assert v.status is Status.SECURE
    assert v.counterexample is None
    assert v.stats.max_depth == 0
    assert v.stats.nodes_explored == 1


def test_verify_secure_naive_needs_one_split(demo_net, le20):
    v = verify(demo_net, le20, Config(mode="naive"))
    assert v.status is Status.SECURE
    # naive [0,22] cannot prove le 20; bisecting y tightens the union
    # to [2,20], with at most one extra level for rounding at the edge
    assert 1 <= v.stats.max_depth <= 2
    assert v.stats.nodes_explored >= 3


def test_verify_insecure(demo_net, le15):
    v = verify(demo_net, le15, Config())
    assert v.status is Status.INSECURE
    x = v.counterexample
    assert 4.0 <= x[0] <= 6.0 and 1.0 <= x[1] <= 5.0
    assert eval_concrete(demo_net, x)[0] > 15.0


def test_verify_insecure_corner_sampling(demo_net, le15):
    v = verify(demo_net, le15, Config(sample_strategy="corners"))
    assert v.status is Status.INSECURE
    # the violating corner is found before any split
    assert v.stats.nodes_explored == 1


def _refuse(*args, **kwargs):
    raise AssertionError("a box decided by its midpoint was bounded")


@pytest.mark.parametrize("mode", ["symbolic", "naive"])
@pytest.mark.parametrize("strategy", ["midpoint", "corners"])
def test_root_midpoint_counterexample_is_not_bounded(monkeypatch, demo_net, mode, strategy):
    # y = x0 + 2*x1 is 11 at the root's midpoint (5, 3), above 10
    for name in ("symbolic_forward", "naive_forward"):
        monkeypatch.setattr(engine, name, _refuse)
    monkeypatch.setattr(Network, "split_weights", property(_refuse))
    spec = (InputSpec((Box([4, 1], [6, 5]),)), OutLE(0, 10.0))
    v = verify(demo_net, spec, Config(mode=mode, sample_strategy=strategy))
    assert v.status is Status.INSECURE
    assert v.counterexample.tolist() == [5.0, 3.0]
    assert v.stats.nodes_explored == 1


@pytest.mark.parametrize("mode", ["symbolic", "naive"])
def test_a_run_its_roots_midpoint_decides_takes_one_network_pass(monkeypatch, demo_net, mode):
    # the median run of the ACAS-shaped benchmark: one wave, which evaluates
    # the root's midpoint, one point in one network pass, and bounds no box
    batch, points = engine.eval_concrete_batch, []

    def counted(core, xs):
        points.append(np.shape(xs))
        return batch(core, xs)

    monkeypatch.setattr(engine, "eval_concrete_batch", counted)
    for name in ("symbolic_forward", "naive_forward", "check_sound"):
        monkeypatch.setattr(engine, name, _refuse)
    # y = x0 + 2*x1 is 11 at the root's midpoint (5, 3), above 10
    spec = (InputSpec((Box([4, 1], [6, 5]),)), OutLE(0, 10.0))
    v = verify(demo_net, spec, Config(mode=mode))
    assert v.status is Status.INSECURE and v.counterexample.tolist() == [5.0, 3.0]
    assert (v.stats.waves, v.stats.boxes_bounded) == (1, 0)
    assert points == [(1, 2)]


def test_counterexamples_are_the_first_finite_violating_sample_of_each_box():
    # y = 1e200 * relu(1e200 * x): 0 for x <= 0, about 1e100 > 20 at
    # x = 1e-300, and inf at x = 1, whose point then certifies nothing
    net = make_net([[[1e200]], [[1e200]]])
    run = engine._Run(net, (InputSpec((Box([-1], [1]),)), OutLE(0, 20.0)), Config(), short_circuit=True)
    pts = np.array([
        [0.0, 1e-300, -1.0, 2e-300],  # two violate: the first is reported
        [0.0, 1.0, -1.0, 0.0],  # only the overflowed sample violates
        [1.0, 0.0, 3e-300, 1e-300],  # the overflowed sample is passed over
    ])[..., np.newaxis]
    with np.errstate(over="ignore"):
        found = run._counterexamples(pts)
        assert list(found) == [0, 2]
        assert {b: x.tolist() for b, x in found.items()} == {0: [1e-300], 2: [3e-300]}
        assert run._counterexamples(np.where(pts > 0.0, -pts, pts)) == {}


# y = relu(x - 10) is never proved <= 0 over [0, 1] (its bounds are rounded
# out) nor violated there, so a run splits that region down to max_depth
_FLAT = ([[[1.0]], [[1.0]]], [[-10.0], [0.0]])


def test_runs_leave_split_weights_off_the_callers_net():
    # the runs bound boxes, so their core computes W+ and W-; the net the
    # caller passed, with or without a normalization, never keeps them.
    # Each run gets a core of its own: the caller's layers, and for a
    # raw-unit spec the caller's normalization
    flat = make_net(*_FLAT)
    scaled = Network(flat.layers, np.array([100.0]), np.array([8.0]))
    for net, lo, hi in ((flat, 0.0, 1.0), (scaled, 100.0, 108.0)):
        spec = (InputSpec((Box([lo], [hi]),)), OutLE(0, 0.0))
        cores = [engine.internal_view(net, spec[0])[0] for _ in range(2)]
        assert cores[0] is not cores[1] and cores[0] is not net
        for core in cores:
            assert core.layers is net.layers and core.norm_range is net.norm_range
            assert "split_weights" not in core.__dict__
        for run in (verify, enumerate_regions):
            assert run(net, spec, Config(max_depth=3)).stats.nodes_explored == 15
            assert "split_weights" not in net.__dict__
        assert cores[0].split_weights is not cores[1].split_weights
        assert "split_weights" not in net.__dict__


def test_a_multi_wave_run_splits_the_weights_once(monkeypatch):
    # eight boxes a wave; every wave reads the same W+ and W-
    monkeypatch.setattr(engine, "WAVE", 8)
    seen = []
    for name in ("symbolic_forward", "naive_forward"):

        def recording(net, box, real=getattr(engine, name)):
            seen.append(net.split_weights)
            return real(net, box)

        monkeypatch.setattr(engine, name, recording)
    net = make_net(*_FLAT)
    spec = (InputSpec((Box([0.0], [1.0]),)), OutLE(0, 0.0))
    for mode in ("symbolic", "naive"):
        seen.clear()
        v = verify(net, spec, Config(mode=mode, max_depth=6))
        assert v.status is Status.UNKNOWN and v.stats.nodes_explored == 127
        assert len(seen) > 1 and all(s is seen[0] for s in seen), mode


def test_verify_wave_stops_at_first_midpoint_counterexample(monkeypatch):
    # y = x; the cursor takes the regions last first, so the wave is
    # [2,3], [1,2], [9,10], [0,1] and its third box violates y <= 5
    net = make_net([np.eye(1)])
    regions = [Box([a], [a + 1]) for a in (0, 9, 1, 2)]
    spec = (InputSpec(tuple(regions)), OutLE(0, 5.0))
    sizes = []

    def recording(net, box, *args):
        sizes.append(len(box.lo))
        return symbolic_forward(net, box, *args)

    monkeypatch.setattr(engine, "symbolic_forward", recording)
    v = verify(net, spec, Config())
    assert v.status is Status.INSECURE and v.counterexample.tolist() == [9.5]
    assert v.stats.nodes_explored == 3
    assert sizes == [2]
    # enumerate bounds every box whose midpoint does not violate
    sizes.clear()
    report = enumerate_regions(net, spec, Config())
    assert [s.value for _, s, _ in report.leaves] == ["secure", "secure", "insecure", "secure"]
    assert sizes == [3]


# verify with corner sampling on the 5-50x6-5 net of seed 6, max depth 6:
# (property, status, nodes, points sampled by a run decided at its root,
# counterexample). A root decided by its bounds or its midpoint samples
# one point; a corner is sampled only after the bounds fail to decide.
CORNER_RUNS = [
    ("phi1.prop", "secure", 1, 1, None),
    ("phi2.prop", "unknown", 127, None, None),
    ("phi3.prop", "insecure", 1, 1, [1650.0, 0.0, 3.1207965, 1090.0, 1080.0]),
    ("phi4.prop", "insecure", 1, 1, [1650.0, 0.0, 0.0, 1100.0, 750.0]),
    ("phi5.prop", "insecure", 1, 1, [325.0, 0.30000000000000004, -3.1390919999999998, 250.0, 200.0]),
    ("phi6.prop", "unknown", 254, None, None),
    ("phi7.prop", "unknown", 127, None, None),
    ("phi8.prop", "unknown", 127, None, None),
    ("phi9.prop", "insecure", 1, 1, [4500.0, 1.920796, -3.1365920000000003, 125.0, 75.0]),
    ("phi10.prop", "unknown", 127, None, None),
    ("phi11.prop", "insecure", 1, 1, [325.0, 0.30000000000000004, -3.1390919999999998, 250.0, 200.0]),
    ("phi12.prop", "insecure", 3, None, [62000.0, 0.0, 3.141593, 1145.0, 60.0]),
    ("phi13.prop", "insecure", 1, 33, [60000.0, 3.141592, 3.141592, 360.0, 0.0]),
    ("phi14.prop", "insecure", 1, 1, [325.0, 0.30000000000000004, -3.1390919999999998, 250.0, 200.0]),
    ("phi15.prop", "insecure", 1, 1, [325.0, -0.30000000000000004, -3.1390919999999998, 250.0, 200.0]),
    ("s1.prop", "insecure", 1, 1, [5200.0, 0.2, -3.136592, 10.0, 10.0]),
    ("s2.prop", "insecure", 1, 1, [400.0, -0.1, -3.136592, 1000.0, 1000.0]),
    ("s3.prop", "insecure", 1, 1, [400.0, 0.0, -3.141592, 500.0, 600.0]),
]


def test_corner_sampling_counterexamples_on_shipped_properties(monkeypatch):
    assert [row[0] for row in CORNER_RUNS] == PROPS
    net = acas_net(np.random.default_rng(6))
    real = engine.eval_concrete_batch
    points = []

    def counting(net, xs):
        points.append(len(xs))
        return real(net, xs)

    monkeypatch.setattr(engine, "eval_concrete_batch", counting)
    for name, status, nodes, root_points, cex in CORNER_RUNS:
        with open(shipped_path(name), "rb") as f:
            spec = parse_property(f, num_outputs=5)
        points.clear()
        v = verify(net, spec, Config(max_depth=6, sample_strategy="corners"))
        got = None if v.counterexample is None else v.counterexample.tolist()
        assert (v.status.value, v.stats.nodes_explored, got) == (status, nodes, cex), name
        if root_points is not None:
            assert sum(points) == root_points, name


@pytest.mark.parametrize("mode", ["symbolic", "naive"])
def test_overflowed_sample_is_not_a_counterexample(mode):
    # at every point of [1, 2]^2 the output overflows: to inf, and to
    # inf - inf = nan with the second output layer
    box = Box([1, 1], [2, 2])
    pts = np.array([[[1.5, 1.5]], [[1e-199, 0.0]]])
    # at the second point the outputs are 2e201 and 0
    for out, want in (([[1e200, 1e200]], {1: [1e-199, 0.0]}), ([[1e200, -1e200]], {})):
        net = make_net([np.full((2, 2), 1e200), out])
        spec = (InputSpec((box,)), OutLE(0, 20.0))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(eval_concrete(net, [1.5, 1.5])).all()
        for strategy in ("midpoint", "corners"):
            with pytest.raises(IntervalOverflowError):
                verify(net, spec, Config(mode=mode, sample_strategy=strategy))
            with pytest.raises(IntervalOverflowError):
                enumerate_regions(net, spec, Config(mode=mode, sample_strategy=strategy))
        run = engine._Run(net, spec, Config(mode=mode), short_circuit=True)
        with np.errstate(over="ignore", invalid="ignore"):
            found = run._counterexamples(pts)
        assert {b: x.tolist() for b, x in found.items()} == want


def test_verify_unknown_on_depth_budget(monkeypatch, demo_net, le15):
    # forbid splitting and sample only the midpoint, which satisfies le 15;
    # the root attack, which would climb to the violating corner, is off
    without_attack(monkeypatch)
    v = verify(demo_net, le15, Config(max_depth=0))
    assert v.status is Status.UNKNOWN


@pytest.mark.parametrize(
    "field, value",
    [
        ("timeout", float("nan")),
        ("precision", float("nan")),
        ("precision", float("inf")),
        ("precision", 0.0),
        ("max_depth", -3),
    ],
)
def test_config_rejects_budgets_it_cannot_honor(field, value):
    with pytest.raises(ValueError, match=field):
        Config(**{field: value})


@pytest.mark.parametrize(
    "field, value", [("workers", 0), ("mode", "exact"), ("sample_strategy", "grid")]
)
def test_config_rejects_unknown_settings(field, value):
    with pytest.raises(ValueError):
        Config(**{field: value})


def test_verify_unknown_on_timeout(demo_net, le20):
    v = verify(demo_net, le20, Config(timeout=-1.0))
    assert v.status is Status.UNKNOWN


class _Clock:
    """A clock that reads one second later at every reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_timeout_after_k_nodes(monkeypatch, demo_net, demo_box, le15):
    # a run reads the clock at its start and once per wave, so with timeout
    # k its deadline passes where wave k + 1 would start. From there on
    # each row no wave has evaluated is an unknown leaf, the rows the waves
    # have decided keep their outcome, and the run goes on until no job is
    # pending.
    monkeypatch.setattr(engine.time, "monotonic", _Clock())
    # naive bounds never prove y <= 16 near the corner (6, 5) where y = 16
    spec = (InputSpec((demo_box,)), OutLE(0, 16.0))
    v = verify(demo_net, spec, Config(mode="naive", timeout=20.0))
    assert (v.status, v.stats.nodes_explored, v.stats.max_depth) == (Status.UNKNOWN, 297, 39)
    assert v.stats.waves == 20

    cfg = Config(precision=0.25, max_depth=12)
    full = enumerate_regions(demo_net, le15, cfg)
    assert full.stats.waves == 6
    k = 3
    monkeypatch.setattr(engine.time, "monotonic", _Clock())
    report = enumerate_regions(demo_net, le15, dataclasses.replace(cfg, timeout=float(k)))
    assert report.stats.waves == k
    got = [
        (b.lo.tolist(), b.hi.tolist(), s.value, None if c is None else c.tolist())
        for b, s, c in report.leaves
    ]
    assert got == [
        ([5.5, 4.5], [6.0, 5.0], "unknown", None),
        ([5.0, 4.5], [5.5, 5.0], "unknown", None),
        ([5.5, 4.0], [6.0, 4.5], "unknown", None),
        ([5.0, 4.0], [5.5, 4.5], "unknown", None),
        ([4.5, 4.5], [5.0, 5.0], "unknown", None),
        ([4.0, 4.5], [4.5, 5.0], "unknown", None),
        ([4.0, 4.0], [5.0, 4.5], "secure", None),
        ([4.0, 3.0], [6.0, 4.0], "secure", None),
        ([4.0, 1.0], [6.0, 3.0], "secure", None),
    ]
    assert report.stats.nodes_explored == 17
    _assert_tiles(report.leaves, 2.0 * 4.0)
    # the leaves the waves decided are leaves of the untimed run
    untimed = {(b.ends.tobytes(), s) for b, s, _ in full.leaves}
    decided = [(b.ends.tobytes(), s) for b, s, _ in report.leaves if s is not SubStatus.UNKNOWN_SUB]
    assert decided and all(leaf in untimed for leaf in decided)


@pytest.mark.parametrize("timeout", [1.0, 3.0, 10.0])
def test_deadline_keeps_a_refuted_region(monkeypatch, demo_net, timeout):
    # the first wave refutes the point region (6, 5), where y = 16; the
    # search takes the second region first, and the deadline passes there
    monkeypatch.setattr(engine.time, "monotonic", _Clock())
    regions = (Box([6.0, 5.0], [6.0, 5.0]), Box([4.0, 1.0], [6.0, 4.0]))
    spec = (InputSpec(regions), OutLE(0, 15.0))
    v = verify(demo_net, spec, Config(mode="naive", timeout=timeout))
    assert v.status is Status.INSECURE
    assert v.counterexample.tolist() == [6.0, 5.0]


def test_verify_memory_does_not_grow_with_nodes(monkeypatch):
    # y = 0 is never proved <= 0, since its bounds are rounded out, and it
    # is never violated, so verify splits every box down to max_depth. Small
    # waves keep the pending jobs few, and the run reuses the rows it has
    # consumed, so that memory held for consumed jobs would show in the
    # peak of both runs.
    monkeypatch.setattr(engine, "WAVE", 8)
    net = make_net([np.zeros((1, 2))])
    spec = (InputSpec((Box([0, 0], [1, 1]),)), OutLE(0, 0.0))
    peaks = []
    for depth in (9, 12):
        tracemalloc.start()
        try:
            v = verify(net, spec, Config(mode="naive", max_depth=depth))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert v.status is Status.UNKNOWN
        assert v.stats.nodes_explored == 2 ** (depth + 1) - 1
    # 8x the nodes
    assert peaks[1] < 1.5 * peaks[0]


@pytest.mark.parametrize("mode", ["symbolic", "naive"])
def test_a_long_verify_run_reuses_its_rows(monkeypatch, mode):
    # the run of test_verify_memory_does_not_grow_with_nodes at its larger
    # depth: 8,191 nodes, of which a few dozen are live at once, so the
    # blocks never grow past their first size
    monkeypatch.setattr(engine, "WAVE", 8)
    net = make_net([np.zeros((1, 2))])
    spec = (InputSpec((Box([0, 0], [1, 1]),)), OutLE(0, 0.0))
    run = engine._Run(net, spec, Config(mode=mode, max_depth=12), short_circuit=True)
    run.execute()
    assert run.stats.nodes_explored == 2**13 - 1
    assert len(run.ends) == engine._MIN_ROWS


@pytest.mark.parametrize("mode", ["symbolic", "naive"])
def test_a_long_run_reuses_the_rows_of_freed_planned_children(monkeypatch, mode):
    # the run above with plans that name another dim than the one each row
    # splits on, so that every planned child is freed with the rows it took
    plan_another_dim(monkeypatch)
    test_a_long_verify_run_reuses_its_rows(monkeypatch, mode)


def test_a_planned_child_that_violates_under_another_split_is_not_reported(monkeypatch):
    # y = x_0 <= 0.8 over [0, 1]^2 in naive mode. The root splits on dim 0;
    # its right child [0.5, 1] x [0, 1] then splits on dim 1, its widest,
    # but is planned on dim 0, so its wave evaluates the planned child
    # [0.75, 1] x [0, 1], whose midpoint (0.875, 0.5) violates. That child
    # is freed with its witness, and bisection goes on to find (0.875, 0.75),
    # as it does with the default planner.
    without_attack(monkeypatch)
    net = make_net([[[1.0, 0.0]]])
    spec = (InputSpec((Box([0.0, 0.0], [1.0, 1.0]),)), OutLE(0, 0.8))
    cfg = Config(mode="naive", max_depth=6)

    def leaves(report):
        return [(b.ends.tolist(), s, None if c is None else c.tolist()) for b, s, c in report.leaves]

    want, want_leaves = verify(net, spec, cfg), leaves(enumerate_regions(net, spec, cfg))
    plan_another_dim(monkeypatch)
    refute = engine._Run._refute
    found = []

    def recorded(run, rows, cex):
        found.extend(x.tolist() for x in cex.values())
        return refute(run, rows, cex)

    monkeypatch.setattr(engine._Run, "_refute", recorded)
    run = engine._Run(net, spec, cfg, short_circuit=True)
    run.execute()
    assert found[0] == [0.875, 0.5]
    assert run.cex.tolist() == [0.875, 0.75] and run.witness == {}
    assert _verdict_key(verify(net, spec, cfg)) == _verdict_key(want)
    got = leaves(enumerate_regions(net, spec, cfg))
    assert got == want_leaves
    assert [0.875, 0.5] not in [c for _, _, c in got]


def test_verify_dim_mismatch(demo_net):
    spec = (InputSpec((Box([0], [1]),)), OutLE(0, 1.0))
    with pytest.raises(ValueError):
        verify(demo_net, spec, Config())


def test_dimension_mismatch_is_typed(demo_net):
    spec = (InputSpec((Box([0], [1]),)), OutLE(0, 1.0))
    with pytest.raises(DimensionMismatchError):
        verify(demo_net, spec, Config())
    for forward in (symbolic_forward, naive_forward):
        with pytest.raises(DimensionMismatchError):
            forward(demo_net, Box([0], [1]))
    with pytest.raises(DimensionMismatchError):
        eval_concrete(demo_net, [1.0, 2.0, 3.0])


def test_verify_rejects_an_output_index_out_of_range(demo_net, demo_box):
    # the demo net has one output: -1 would read it from the end
    for c in (OutLE(-1, 20.0), DiffLE(0, -1, 0.0), OutLE(1, 20.0)):
        with pytest.raises(DimensionMismatchError):
            verify(demo_net, (InputSpec((demo_box,)), c), Config())


def test_verify_multi_region(demo_net):
    regions = InputSpec((Box([4, 1], [5, 3]), Box([5, 3], [6, 5])))
    # one output: IsMax(0) desugars to an empty And, true everywhere
    for c in (OutLE(0, 20.0), IsMax(0)):
        assert verify(demo_net, (regions, c), Config()).status is Status.SECURE


def test_verify_or_constraint_sound(demo_net, demo_box):
    # output range is [6,16]: first disjunct is false, second is provable
    spec = (InputSpec((demo_box,)), Or((OutLE(0, 0.0), OutGE(0, 5.99))))
    assert verify(demo_net, spec, Config()).status is Status.SECURE
    spec = (InputSpec((demo_box,)), Or((OutLE(0, 0.0), OutGE(0, 7.0))))
    assert verify(demo_net, spec, Config()).status is Status.INSECURE


def _without_reduction(monkeypatch):
    """Turn the monotonicity reduction off: no margin is monotone in any dim."""
    monkeypatch.setattr(SoundCheck, "monotone_dims", lambda self, J, wide, margin: np.zeros_like(wide))


def test_monotonicity_reduction_prunes(demo_net, le20, le15, monkeypatch):
    """Same verdicts with the reduction on and off; never a wrong Secure.
    The root attack is off: it would refute le15 at the root."""
    without_attack(monkeypatch)
    nodes = []
    for spec in (le20, le15):
        on = verify(demo_net, spec, Config())
        with monkeypatch.context() as m:
            _without_reduction(m)
            off = verify(demo_net, spec, Config())
        assert on.status is off.status
        nodes.append((on.stats.nodes_explored, off.stats.nodes_explored))
    # le15 is refuted at a corner the reduction reaches without bisecting
    assert nodes == [(1, 1), (2, 6)]


def test_monotonicity_reduction_with_negation(monkeypatch):
    # y = relu(x0 - x1) + relu(x0 + x1) + relu(x0 + 10) over [0, 2] x [-1, 1]
    # rises in x0 (dy/dx0 is in [1, 3]), and its maximum 16 is at x0 = 2.
    # The root's bounds [10, 18] decide neither not(ge 0 c) below: the
    # first two units are unstable there. Not(ge) is an Or-free literal
    # tree, so the reduction pins x0 to its ends, where the bounds are tight.
    # The root attack is off: it would refute c = 15.5 at the root.
    without_attack(monkeypatch)
    weights = [[[1.0, -1.0], [1.0, 1.0], [1.0, 0.0]], [[1.0, 1.0, 1.0]]]
    net = make_net(weights, [[0.0, 0.0, 10.0], [0.0]])
    region = InputSpec((Box([0, -1], [2, 1]),))
    runs = []
    for c in (16.5, 15.5):
        spec = (region, Not(OutGE(0, c)))
        on = verify(net, spec, Config())
        with monkeypatch.context() as m:
            _without_reduction(m)
            off = verify(net, spec, Config())
        for v in (on, off):
            cex = None if v.counterexample is None else v.counterexample.tolist()
            runs.append((v.status.value, v.stats.nodes_explored, cex))
    assert runs == [
        # the two endpoint boxes x0 = 0 and x0 = 2 are proved
        ("secure", 3, None),
        ("secure", 7, None),
        # the endpoint box x0 = 2 violates y < 15.5 at its midpoint
        ("insecure", 2, [2.0, 0.0]),
        ("insecure", 4, [1.875, 0.0]),
    ]


def test_monotone_endpoint_children_are_corners(monkeypatch):
    # y = 2*x0 - x1 over [1, 2]^2 rises in x0 and falls in x1, so the root
    # splits into its four corners; only the corner (2, 1) violates y <= 2.999.
    # The root attack, which would climb to that corner, is off.
    without_attack(monkeypatch)
    net = make_net([np.eye(2), [[2.0, -1.0]]])
    spec = (InputSpec((Box([1, 1], [2, 2]),)), OutLE(0, 2.999))
    v = verify(net, spec, Config())
    assert v.status is Status.INSECURE
    assert v.counterexample.tolist() == [2.0, 1.0]
    assert v.stats.nodes_explored <= 5 and v.stats.max_depth == 2


def test_monotone_or_constraint_still_sound():
    # y = x over [0, 10]; "y <= 1 or y > upper" fails only in the interior,
    # so endpoint substitution alone would wrongly prove it. With upper = 3
    # the root's midpoint satisfies it, so only a split can find (1, 3].
    net = make_net([np.eye(1)])
    for upper in (9, 3):
        spec_src = f"domain:\n0 10\nregion:\n*\nconstraint:\nor(le 0 1, not(le 0 {upper}))\n"
        spec = parse_property(spec_src, num_outputs=1)
        v = verify(net, spec, Config(precision=0.5))
        assert v.status is Status.INSECURE
        y = eval_concrete(net, v.counterexample)
        assert not check_concrete(y, spec[1])


def test_worker_count_does_not_change_status(demo_net, le20, le15):
    for spec, want in ((le20, Status.SECURE), (le15, Status.INSECURE)):
        for workers in (1, 2, 4):
            v = verify(demo_net, spec, Config(workers=workers, mode="naive"))
            assert v.status is want, f"workers={workers}"


@pytest.mark.parametrize("mode", ["naive", "symbolic"])
@pytest.mark.parametrize("workers", [1, 2])
def test_worker_exception_fails_fast(mode, workers, recwarn):
    # 1e200 weights overflow in the second layer; every worker count must
    # raise the worker's error rather than wait for jobs that never finish
    net = make_net([np.full((3, 2), 1e200), np.full((3, 3), 1e200), np.ones((1, 3))])
    spec = (InputSpec((Box([0, 0], [1, 1]),)), OutLE(0, 0.0))
    cfg = Config(workers=workers, mode=mode, timeout=2.0)
    raised = []

    def run():
        try:
            verify(net, spec, cfg)
        except IntervalOverflowError as e:
            raised.append(e)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=20.0)
    assert not t.is_alive(), "verify hung after a worker exception"
    assert len(raised) == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("mode", ["naive", "symbolic"])
def test_overflow_past_the_counterexample_is_not_raised(monkeypatch, mode, recwarn):
    # the last region is searched first, and violates at its midpoint or,
    # with the second bound, at the midpoint of its upper half; the bounds
    # of the first region overflow, but the search never gets there. The
    # root attack is off, so that the second counterexample is found by
    # bisection.
    without_attack(monkeypatch)
    net = load_network("2 1 1 1\n1,1,1\n1e300\n0\n1\n0\n")
    for bound, cex in (("-1", 0.5), ("6e299", 0.75)):
        text = f"domain:\n0 2e10\nregion:\n1e10 2e10\nregion:\n0 1\nconstraint:\nle 0 {bound}\n"
        spec = parse_property(text, num_outputs=1)
        v = verify(net, spec, Config(mode=mode, max_depth=5))
        assert v.status is Status.INSECURE and v.counterexample.tolist() == [cex]
        with pytest.raises(IntervalOverflowError):
            enumerate_regions(net, spec, Config(mode=mode, max_depth=5))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_overflow_in_an_output_the_property_does_not_read(recwarn):
    # output 0 is 1e300 x, past the float range over [1, 1e10]; the
    # property reads output 1 alone. The symbolic pass bounds no output,
    # and the check bounds only output 1; the naive pass bounds them all
    net = make_net([np.eye(1), [[1e300], [1.0]]])
    spec = (InputSpec((Box([1.0], [1e10]),)), OutLE(1, 2e10))
    assert verify(net, spec, Config(mode="symbolic")).status is Status.SECURE
    with pytest.raises(IntervalOverflowError):
        verify(net, spec, Config(mode="naive"))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_a_literal_bound_that_overflows_over_finite_outputs_decides_nothing(recwarn):
    # y0 = 1e308 relu(x) and y1 = -1e308 relu(-x) are bounded in the float
    # range, but over the root box the bound of y0 - y1 = 1e308 |x|
    # overflows; the halves bound it. Neither mode raises
    net = make_net([[[1.0], [-1.0]], [[1e308, 0.0], [0.0, -1e308]]])
    spec = (InputSpec((Box([-1.0], [1.0]),)), DiffLE(0, 1, 1.5e308))
    for mode in ("symbolic", "naive"):
        v = verify(net, spec, Config(mode=mode))
        assert (v.status, v.stats.nodes_explored) == (Status.SECURE, 3), mode
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_a_symbolic_pass_bounds_each_hidden_layer_once(monkeypatch, demo_net):
    # the check bounds the literal rows it reads, so the pass bounds no
    # output; a one-hidden-layer net takes one bound per pass. Over this
    # box both ReLUs are unstable, and the run bisects over several waves
    calls = {"forward": 0, "bounds": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(engine, "symbolic_forward", counted("forward", engine.symbolic_forward))
    monkeypatch.setattr(propagate, "bounds_of_rows", counted("bounds", propagate.bounds_of_rows))
    assert demo_net.num_hidden == 1
    spec = (InputSpec((Box([-10, 1], [6, 5]),)), OutLE(0, 17.0))
    assert verify(demo_net, spec, Config(mode="symbolic")).status is Status.SECURE
    assert calls["forward"] > 1 and calls["bounds"] == calls["forward"] * demo_net.num_hidden


def _assert_tiles(leaves, volume):
    """The leaves' boxes fill `volume`, and no two overlap on an open set."""
    boxes = [b for b, _, _ in leaves]
    total = sum(np.prod(b.widths()) for b in boxes)
    assert total == pytest.approx(volume, rel=1e-9)
    for a in range(len(boxes)):
        for b in range(a + 1, len(boxes)):
            inter = 1.0
            for da, db in zip(boxes[a].dims, boxes[b].dims):
                inter *= max(0.0, min(da.hi, db.hi) - max(da.lo, db.lo))
            assert inter == 0.0


def test_enumerate_partition_covers_region(demo_net, le15):
    report = enumerate_regions(demo_net, le15, Config(precision=0.25, max_depth=12))
    assert report.leaves
    _assert_tiles(report.leaves, 2.0 * 4.0)
    # both secure and insecure leaves exist, and every insecure leaf
    # carries a genuine counterexample
    statuses = {s for _, s, _ in report.leaves}
    assert SubStatus.SECURE_SUB in statuses and SubStatus.INSECURE_SUB in statuses
    for box, status, cex in report.leaves:
        if status is SubStatus.INSECURE_SUB:
            assert cex is not None
            assert eval_concrete(demo_net, cex)[0] > 15.0


def test_enumerate_all_secure(demo_net, le20):
    report = enumerate_regions(demo_net, le20, Config())
    assert all(s is SubStatus.SECURE_SUB for _, s, _ in report.leaves)
    assert [c for _, s, c in report.leaves if s is SubStatus.INSECURE_SUB] == []


@pytest.mark.parametrize("mode", ["symbolic", "naive"])
def test_unknown_leaves_at_the_precision_floor(demo_net, le15, mode):
    # with a depth budget the search never reaches, a box ends Unknown only
    # where the split rule finds no dim wider than the precision
    report = enumerate_regions(demo_net, le15, Config(precision=0.5, max_depth=50, mode=mode))
    unknown = [box for box, status, _ in report.leaves if status is SubStatus.UNKNOWN_SUB]
    assert unknown
    for box in unknown:
        assert (box.widths() <= 0.5).all()
    assert report.stats.max_depth < 50
    _assert_tiles(report.leaves, 2.0 * 4.0)


def test_boxes_one_ulp_wide_split_to_the_depth_budget():
    # y = relu(x) - relu(x) <= 0 is never proved by naive bounds, which are
    # rounded out, and never violated. Near 1e12 an ULP is 2^-13, so the
    # root, 8 ULPs wide, has 8 boxes one ULP wide at depth 3, far above the
    # precision: a midpoint there rounds onto an end, so one half has zero
    # width, an Unknown leaf with no dim to split, and the other is the
    # same box again, down to the depth budget
    net = make_net([[[1.0], [1.0]], [[1.0, -1.0]]])
    root = Box([1e12], [1e12 + 2.0**-10])
    spec = (InputSpec((root,)), OutLE(0, 0.0))
    cfg = Config(mode="naive")
    assert default_max_depth(root, cfg.precision) == 10
    report = enumerate_regions(net, spec, cfg)
    assert report.stats.max_depth == 10
    assert {s for _, s, _ in report.leaves} == {SubStatus.UNKNOWN_SUB}
    ulps = sorted(int((b.hi[0] - b.lo[0]) / 2.0**-13) for b, _, _ in report.leaves)
    assert ulps == [0] * 56 + [1] * 8
    _assert_tiles(report.leaves, 2.0**-10)
    assert verify(net, spec, cfg).status is Status.UNKNOWN


def test_precision_reads_normalized_widths():
    # y = relu(u) - relu(u) <= 0 over u = (x - 100) / 8, x in [100, 108]:
    # never decided, so every leaf ends at the precision floor, which is
    # read in the units the first layer reads, 8 raw units to 1
    layers = make_net([[[1.0], [1.0]], [[1.0, -1.0]]]).layers
    net = Network(layers, np.array([100.0]), np.array([8.0]))
    spec = (InputSpec((Box([100.0], [108.0]),)), OutLE(0, 0.0))
    report = enumerate_regions(net, spec, Config(mode="naive", precision=0.25, max_depth=50))
    widths = [b.hi[0] - b.lo[0] for b, s, _ in report.leaves if s is SubStatus.UNKNOWN_SUB]
    assert widths == [1.0] * 8
    _assert_tiles(report.leaves, 8.0)
    # the default depth budget, ceil(log2(1 + 1 ULP / 0.25)) * 1
    v = verify(net, spec, Config(mode="naive", precision=0.25))
    assert v.status is Status.UNKNOWN and v.stats.max_depth == 3


def test_enumerate_deterministic_across_workers(demo_net, le15):
    def key(report):
        return sorted(
            (tuple((d.lo, d.hi) for d in box.dims), status.value)
            for box, status, _ in report.leaves
        )

    base = key(enumerate_regions(demo_net, le15, Config(precision=0.5, workers=1)))
    for workers in (2, 4):
        got = key(enumerate_regions(demo_net, le15, Config(precision=0.5, workers=workers)))
        assert got == base


def test_normalized_network_verify():
    # internal net computes u = (x - 1) / 2; property speaks raw units
    net = load_network("1 1 1 1\n1,1\nnorm: 1.0,2.0\n1\n0\n")
    spec = parse_property("domain:\n1 5\nregion:\n*\nconstraint:\nle 0 2.01\n", num_outputs=1)
    assert verify(net, spec, Config()).status is Status.SECURE
    spec = parse_property("domain:\n1 5\nregion:\n*\nconstraint:\nle 0 1.5\n", num_outputs=1)
    v = verify(net, spec, Config())
    assert v.status is Status.INSECURE
    # counterexample is reported in raw units
    assert 1.0 <= v.counterexample[0] <= 5.0
    assert eval_concrete(net, v.counterexample)[0] > 1.5


def test_normalized_units_counterexample():
    # the spec speaks the normalized coordinates u = (x - 10) / 2, where
    # y = u; its midpoint u = 0.5 violates y <= 0.25
    net = load_network("1 1 1 1\n1,1\nnorm: 10.0,2.0\n1\n0\n")
    text = "units: normalized\ndomain:\n0 1\nregion:\n*\nconstraint:\nle 0 0.25\n"
    v = verify(net, parse_property(text, num_outputs=1), Config())
    assert v.status is Status.INSECURE
    assert v.counterexample.tolist() == [0.5]


def _sample_batches(monkeypatch, net) -> list:
    """The batches of points the engine evaluates from now on, each as
    (whether it went through `net`'s layers and normalization, but not
    through `net` itself, its points)."""
    batches, real = [], engine.eval_concrete_batch

    def recording(n, xs):
        copy = n is not net and n.layers is net.layers
        batches.append((copy and n.norm_mean is net.norm_mean and n.norm_range is net.norm_range, xs.tolist()))
        return real(n, xs)

    monkeypatch.setattr(engine, "eval_concrete_batch", recording)
    return batches


def test_exact_round_trip_takes_no_second_pass(monkeypatch):
    # y = u = (x - 1) / 2 violates y <= 0.5 at the midpoint x = 3 of
    # [1, 5]; the raw midpoint is the one point evaluated, once, through
    # the run's copy of the network, normalization included
    net = load_network("1 1 1 1\n1,1\nnorm: 1.0,2.0\n1\n0\n")
    spec = parse_property("domain:\n1 5\nregion:\n*\nconstraint:\nle 0 0.5\n", num_outputs=1)
    batches = _sample_batches(monkeypatch, net)
    v = verify(net, spec, Config())
    assert v.status is Status.INSECURE and v.counterexample.tolist() == [3.0]
    assert v.stats.nodes_explored == 1
    assert batches == [(True, [[3.0]])]


def test_inexact_round_trip_is_checked_through_the_full_network(monkeypatch):
    # u = (x - 0.1) / 0.3 at the midpoint of [0.2, 0.7] does not convert
    # back to that midpoint; the raw point is what is evaluated, through
    # the network's normalization, and what is reported
    net = load_network("1 1 1 1\n1,1\nnorm: 0.1,0.3\n1\n0\n")
    raw = float(midpoint(np.array([0.2]), np.array([0.7]))[0])
    u = float(net.normalize(np.array([raw]))[0])
    assert u * 0.3 + 0.1 != raw
    c = u - 0.25
    spec = parse_property(f"domain:\n0.2 0.7\nregion:\n*\nconstraint:\nle 0 {c!r}\n", num_outputs=1)
    batches = _sample_batches(monkeypatch, net)
    v = verify(net, spec, Config())
    assert v.status is Status.INSECURE and v.counterexample.tolist() == [raw]
    assert v.stats.nodes_explored == 1
    assert batches == [(True, [[raw]])]
    assert not check_concrete(eval_concrete(net, v.counterexample), spec[1])


# region ends that do not round-trip: normalizing 8061.854646744073 and
# converting it back gives 8061.854646744072, one ULP below it
_OFF_END_NET = "1 1 1 1\n1,1\nnorm: 19791.091,60261.0\n-1\n0\n"
_OFF_END_PROP = "domain:\n8061.854646744073 9062\nregion:\n*\nconstraint:\nle 0 0.1946405860041431\n"


@pytest.mark.parametrize(
    "lo, hi, c",
    [
        (8061.854646744073, 9062.0, 0.1946405860041431),
        # two ULPs wide when normalized: the midpoint, one ULP above the
        # normalized lo, also converts back to a point below lo
        (8073.716432624537, 8073.716432624538, 0.0),
    ],
)
def test_counterexample_lies_in_its_raw_region(lo, hi, c):
    net = load_network(_OFF_END_NET)
    spec = parse_property(f"domain:\n{lo!r} {hi!r}\nregion:\n*\nconstraint:\nle 0 {c!r}\n", num_outputs=1)
    # lo normalized and converted back lands below lo
    assert net.normalize(lo) * net.norm_range + net.norm_mean < lo
    v = verify(net, spec, Config())
    assert v.status is Status.INSECURE and v.stats.nodes_explored == 1
    assert lo <= v.counterexample[0] <= hi
    assert not check_concrete(eval_concrete(net, v.counterexample), spec[1])


@pytest.mark.parametrize(
    "regions",
    [
        ["*"],
        # the second region is the one whose end does not round-trip
        ["1000 2000", "8061.854646744073 9062"],
        # normalizing 8175.655620602559 and back gives a point above it
        ["8175.655620602559 9062"],
    ],
)
def test_enumerated_leaves_tile_the_raw_region(regions):
    net = load_network(_OFF_END_NET)
    text = _OFF_END_PROP.replace("region:\n*\n", "".join(f"region:\n{r}\n" for r in regions))
    spec = parse_property(text, num_outputs=1)
    report = enumerate_regions(net, spec, Config(max_depth=6))
    for region in spec[0].regions:
        lo, hi = region.lo[0], region.hi[0]
        ends = sorted((b.lo[0], b.hi[0]) for b, _, _ in report.leaves if lo <= b.lo[0] <= b.hi[0] <= hi)
        assert ends[0][0] == lo and ends[-1][1] == hi
        assert all(a[1] == b[0] for a, b in zip(ends, ends[1:]))
    for b, s, c in report.leaves:
        if c is not None:
            assert b.lo[0] <= c[0] <= b.hi[0]


@pytest.mark.parametrize("regions", [["*", "8175.655620602559 9062"], ["8175.655620602559 9062", "*"]])
def test_overlapping_regions_keep_the_leaves_of_their_own_runs(regions):
    # one region lies inside the other, and its lower end does not
    # round-trip through the normalization; each region's leaves are those
    # of a run over it alone, ending on its own raw ends. The cursor
    # reaches the last region first, so its leaves come first.
    net = load_network(_OFF_END_NET)

    def leaves(regions):
        text = "domain:\n8000 9062\n" + "".join(f"region:\n{r}\n" for r in regions)
        spec = parse_property(text + "constraint:\nle 0 0.1946405860041431\n", num_outputs=1)
        report = enumerate_regions(net, spec, Config(max_depth=3))
        return [(b.ends.tolist(), s) for b, s, _ in report.leaves]

    got = leaves(regions)
    assert ([[8175.655620602559], [9062.0]], SubStatus.SECURE_SUB) in got
    assert got == leaves(regions[1:]) + leaves(regions[:1])


def test_region_that_overflows_when_normalized_is_rejected():
    net = load_network("1 1 1 1\n1,1\nnorm: 0.0,1e-300\n1\n0\n")
    spec = parse_property("domain:\n-1e10 1e10\nregion:\n*\nconstraint:\nle 0 1\n", num_outputs=1)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
        verify(net, spec, Config())


def test_stats_accounting(demo_net, le15):
    v = verify(demo_net, le15, Config(mode="naive", sample_strategy="corners"))
    s = v.stats
    assert s.nodes_explored >= 1
    assert s.wall_time >= 0.0
    assert s.max_depth >= 0


def test_write_report_verdict(tmp_path, demo_net, le15):
    v = verify(demo_net, le15, Config())
    out = tmp_path / "verdict.json"
    with open(out, "w") as f:
        write_report(f, v)
    doc = json.loads(out.read_text())
    assert doc["status"] == "insecure"
    assert len(doc["counterexample"]) == 2
    assert "nodes_explored" in doc["stats"]
    # the root attack found the counterexample, in the one wave that
    # bounded the root
    assert doc["stats"]["attack_hits"] == 1
    assert (doc["stats"]["waves"], doc["stats"]["boxes_bounded"]) == (1, 1)


def test_write_report_partition(tmp_path, demo_net, le20):
    report = enumerate_regions(demo_net, le20, Config())
    out = tmp_path / "partition.json"
    with open(out, "w") as f:
        write_report(f, report)
    doc = json.loads(out.read_text())
    assert doc["leaves"][0]["status"] == "secure"
    assert len(doc["leaves"][0]["box"]) == 2


# y = relu(x - 9/16) - 2 relu(x - 3/4) over [0, 1] peaks at 3/16 at x = 3/4
# and exceeds 1/8 only on (11/16, 13/16); it is 0 at the midpoint 1/2 and
# at 0, and -1/16 at 1, so neither the midpoint nor a corner violates y <= 1/8
_BUMP = ([[[1.0], [1.0]], [[1.0, -2.0]]], [[-0.5625, -0.75], [0.0]])


@pytest.mark.parametrize("mode", ["symbolic", "naive"])
@pytest.mark.parametrize("strategy", ["midpoint", "corners"])
def test_attack_refutes_the_root_where_samples_miss(monkeypatch, mode, strategy):
    net = make_net(*_BUMP)
    spec = (InputSpec((Box([0.0], [1.0]),)), OutLE(0, 0.125))
    cfg = Config(mode=mode, sample_strategy=strategy, max_depth=12)
    v = verify(net, spec, cfg)
    assert v.status is Status.INSECURE
    assert (v.stats.nodes_explored, v.stats.attack_hits) == (1, 1)
    (x,) = v.counterexample.tolist()
    assert 0.0 <= x <= 1.0
    assert exact_outputs(net, [x])[0] > Fraction(1, 8)
    # without the attack the samples find the violation only after splits
    without_attack(monkeypatch)
    off = verify(net, spec, cfg)
    assert off.status is Status.INSECURE and off.stats.nodes_explored > 1
    assert off.stats.attack_hits == 0


@pytest.mark.parametrize("mode, nodes", [("symbolic", 10), ("naive", 22)])
def test_reusing_rows_keeps_a_pending_attack_hit(mode, nodes):
    # the attack refutes [0, 1] in the first wave, but the cursor consumes
    # the last region, [0, 11/16], first, where y <= 1/8 holds; the hit on
    # [0, 1] stays pending while the run reuses the rows it consumes, and
    # it must still count as the attack's
    net = make_net(*_BUMP)
    regions = (Box([0.0], [1.0]), Box([0.0], [0.6875]))
    spec = (InputSpec(regions), OutLE(0, 0.125))
    v = verify(net, spec, Config(mode=mode, max_depth=10))
    assert v.status is Status.INSECURE
    assert (v.stats.attack_hits, v.stats.nodes_explored) == (1, nodes)


def test_attack_counterexample_in_raw_units():
    # the bump net behind a normalization u = (x - 100) / 8, over x in [100, 108]
    bump = make_net(*_BUMP)
    net = Network(bump.layers, np.array([100.0]), np.array([8.0]))
    spec = (InputSpec((Box([100.0], [108.0]),)), OutLE(0, 0.125))
    v = verify(net, spec, Config())
    assert v.status is Status.INSECURE and v.stats.attack_hits == 1
    (x,) = v.counterexample.tolist()
    assert 100.0 <= x <= 108.0
    assert exact_outputs(net, [x])[0] > Fraction(1, 8)


def test_attack_skips_enumerate(monkeypatch):
    net = make_net(*_BUMP)
    region = InputSpec((Box([0.0], [1.0]),))
    attacked = []
    real = engine._Run._attack_root

    def recording(self, *args):
        attacked.append(args)
        return real(self, *args)

    monkeypatch.setattr(engine._Run, "_attack_root", recording)
    enumerate_regions(net, (region, OutLE(0, 0.125)), Config(max_depth=3))
    assert attacked == []
    # a verify run is attacked at its root, whatever its constraint
    verify(net, (region, Or((OutLE(0, 0.125), OutGE(0, 5.0)))), Config(max_depth=3))
    assert [(r, lo.tolist(), hi.tolist()) for r, lo, hi in attacked] == [(0, [0.0], [1.0])]


@pytest.mark.parametrize(
    "constraint",
    [
        Or((OutLE(0, 0.125), OutGE(0, 5.0))),
        Not(And((Not(OutLE(0, 0.125)), Not(OutGE(0, 5.0))))),
    ],
    ids=["or", "not-and-not"],
)
@pytest.mark.parametrize("mode", ["symbolic", "naive"])
@pytest.mark.parametrize("strategy", ["midpoint", "corners"])
def test_attack_refutes_an_or_root_where_samples_miss(monkeypatch, mode, strategy, constraint):
    # y <= 1/8 or y >= 5 fails where y <= 1/8 does, on the bump's peak
    # alone: the attack climbs the first literal, which sets the margin
    net = make_net(*_BUMP)
    spec = (InputSpec((Box([0.0], [1.0]),)), constraint)
    cfg = Config(mode=mode, sample_strategy=strategy, max_depth=12)
    v = verify(net, spec, cfg)
    assert v.status is Status.INSECURE
    assert (v.stats.nodes_explored, v.stats.attack_hits) == (1, 1)
    (x,) = v.counterexample.tolist()
    assert 0.0 <= x <= 1.0
    (y,) = exact_outputs(net, [x])
    assert Fraction(1, 8) < y < 5
    without_attack(monkeypatch)
    off = verify(net, spec, cfg)
    assert off.status is Status.INSECURE and off.stats.nodes_explored > 1
    assert off.stats.attack_hits == 0


def test_attack_of_a_constraint_without_literals():
    # y = 1e308 x overflows at every point of [2, 3], so no sample refutes
    # the empty Or there, and its check reads no bound: the undecided root
    # is attacked with no literal to climb
    net = make_net([[[1e308]]])
    spec = (InputSpec((Box([2.0], [3.0]),)), Or(()))
    v = verify(net, spec, Config(max_depth=2))
    assert v.status is Status.UNKNOWN and v.stats.nodes_explored == 7


@pytest.mark.parametrize("seed", [0, 4, 6])
def test_attack_only_turns_unknown_into_insecure(monkeypatch, seed):
    # attack on against off on the shipped properties: a run the attack
    # does not decide is the same run, and a decided one ends sooner. On
    # the nets of these seeds the attack decides some runs, Unknown ones
    # among them on seeds 0 and 6, and phi6 has two regions on seed 4.
    net = acas_net(np.random.default_rng(seed))
    hits = 0
    for name in PROPS:
        with open(shipped_path(name), "rb") as f:
            spec = parse_property(f, num_outputs=5)
        for mode in ("symbolic", "naive"):
            cfg = Config(max_depth=4, mode=mode, timeout=600.0)
            on = verify(net, spec, cfg)
            with monkeypatch.context() as m:
                without_attack(m)
                off = verify(net, spec, cfg)
            if not on.stats.attack_hits:
                assert _verdict_key(on) == _verdict_key(off), (name, mode)
                continue
            hits += 1
            assert on.status is Status.INSECURE, (name, mode)
            assert off.status in (Status.INSECURE, Status.UNKNOWN), (name, mode)
            assert on.stats.nodes_explored <= off.stats.nodes_explored, (name, mode)
            assert not check_concrete(eval_concrete(net, on.counterexample), spec[1])
    assert hits


def test_attack_of_a_root_does_not_depend_on_its_stack():
    # the bump's midpoint 1/2 lies where no unit is active, so the attack
    # refutes [0, 1] from one of its uniform starts; y < 0 holds on [2, 3]
    net = make_net(*_BUMP)
    regions = (Box([2.0], [3.0]), Box([0.0], [1.0]))
    run = engine._Run(net, (InputSpec(regions), OutLE(0, 0.125)), Config(), short_circuit=True)
    alone = run._attack([1], Box.stack(run.ends[1:]))
    stacked = run._attack([0, 1], Box.stack(run.ends))
    assert list(alone) == [0] and list(stacked) == [1]
    assert alone[0].tolist() == stacked[1].tolist()


def test_attack_hits_a_violation_on_the_boundary():
    # y = x over [0, 1] violates y < 1 only at x = 1, where the margin of
    # not(ge 0 1) is exactly 0; the steps reach it by clipping
    net = make_net([np.eye(1)])
    spec = (InputSpec((Box([0.0], [1.0]),)), Not(OutGE(0, 1.0)))
    v = verify(net, spec, Config())
    assert v.status is Status.INSECURE and v.counterexample.tolist() == [1.0]
    assert (v.stats.nodes_explored, v.stats.attack_hits) == (1, 1)
