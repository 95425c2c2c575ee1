import json
import threading

import numpy as np
import pytest

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
from relucheck.intervals import Box, IntervalOverflowError
from relucheck.network import DimensionMismatchError, eval_concrete, load_network
from relucheck.propagate import naive_forward, symbolic_forward
from relucheck.properties import (
    InputSpec,
    IsMax,
    Not,
    Or,
    OutGE,
    OutLE,
    check_concrete,
    parse_property,
)

from conftest import make_net


@pytest.fixture(scope="module")
def le20(demo_net):
    with open(shipped_path("le20.prop"), "rb") as f:
        return parse_property(f, num_outputs=demo_net.output_dim)


@pytest.fixture(scope="module")
def le15(demo_net):
    with open(shipped_path("le15.prop"), "rb") as f:
        return parse_property(f, num_outputs=demo_net.output_dim)


def test_default_max_depth():
    regions = [Box.from_arrays([0, 0], [4, 1])]
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


def test_verify_unknown_on_depth_budget(demo_net, le15):
    # forbid splitting and sample only the midpoint, which satisfies le 15
    v = verify(demo_net, le15, Config(max_depth=0))
    assert v.status is Status.UNKNOWN


def test_verify_unknown_on_timeout(demo_net, le20):
    v = verify(demo_net, le20, Config(timeout=-1.0))
    assert v.status is Status.UNKNOWN


def test_verify_dim_mismatch(demo_net):
    spec = (InputSpec((Box.from_arrays([0], [1]),)), OutLE(0, 1.0))
    with pytest.raises(ValueError):
        verify(demo_net, spec, Config())


def test_dimension_mismatch_is_typed(demo_net):
    spec = (InputSpec((Box.from_arrays([0], [1]),)), OutLE(0, 1.0))
    with pytest.raises(DimensionMismatchError):
        verify(demo_net, spec, Config())
    for forward in (symbolic_forward, naive_forward):
        with pytest.raises(DimensionMismatchError):
            forward(demo_net, Box.from_arrays([0], [1]))
    with pytest.raises(DimensionMismatchError):
        eval_concrete(demo_net, [1.0, 2.0, 3.0])


def test_verify_multi_region(demo_net):
    spec = (
        InputSpec((Box.from_arrays([4, 1], [5, 3]), Box.from_arrays([5, 3], [6, 5]))),
        OutLE(0, 20.0),
    )
    assert verify(demo_net, spec, Config()).status is Status.SECURE


def test_verify_or_constraint_sound(demo_net, demo_box):
    # output range is [6,16]: first disjunct is false, second is provable
    spec = (InputSpec((demo_box,)), Or((OutLE(0, 0.0), OutGE(0, 5.99))))
    assert verify(demo_net, spec, Config()).status is Status.SECURE
    spec = (InputSpec((demo_box,)), Or((OutLE(0, 0.0), OutGE(0, 7.0))))
    assert verify(demo_net, spec, Config()).status is Status.INSECURE


def test_monotonicity_reduction_prunes(demo_net, le20, le15):
    """Same verdicts with the reduction on and off; never a wrong Secure."""
    for spec in (le20, le15):
        on = verify(demo_net, spec, Config(monotonicity=True))
        off = verify(demo_net, spec, Config(monotonicity=False))
        assert on.status is off.status


def test_monotonicity_reduction_with_negation(demo_net, demo_box):
    # not(ge 0 23) is an Or-free literal tree, so the reduction applies
    spec = (InputSpec((demo_box,)), Not(OutGE(0, 23.0)))
    for mono in (True, False):
        v = verify(demo_net, spec, Config(monotonicity=mono))
        assert v.status is Status.SECURE


def test_monotone_endpoint_children_are_corners():
    # y = 2*x0 - x1 over [1, 2]^2 rises in x0 and falls in x1, so the root
    # splits into its four corners; only the corner (2, 1) violates y <= 2.999
    net = make_net([np.eye(2), [[2.0, -1.0]]])
    spec = (InputSpec((Box.from_arrays([1, 1], [2, 2]),)), OutLE(0, 2.999))
    v = verify(net, spec, Config())
    assert v.status is Status.INSECURE
    assert v.counterexample.tolist() == [2.0, 1.0]
    assert v.stats.nodes_explored <= 5 and v.stats.max_depth == 2


def test_monotone_or_constraint_still_sound():
    # y = x over [0, 10]; "y <= 1 or y > 9" fails only in the interior,
    # so endpoint substitution alone would wrongly prove it
    net = make_net([np.eye(1)])
    spec_src = "domain:\n0 10\nregion:\n*\nconstraint:\nor(le 0 1, not(le 0 9))\n"
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
    spec = (InputSpec((Box.from_arrays([0, 0], [1, 1]),)), OutLE(0, 0.0))
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
def test_overflow_past_the_counterexample_is_not_raised(mode, recwarn):
    # the last region is searched first and violates at its midpoint; the
    # bounds of the first region overflow, but the search never gets there
    net = load_network("2 1 1 1\n1,1,1\n1e300\n0\n1\n0\n")
    text = "domain:\n0 2e10\nregion:\n1e10 2e10\nregion:\n0 1\nconstraint:\nle 0 -1\n"
    spec = parse_property(text, num_outputs=1)
    v = verify(net, spec, Config(mode=mode, max_depth=5))
    assert v.status is Status.INSECURE and v.counterexample.tolist() == [0.5]
    with pytest.raises(IntervalOverflowError):
        enumerate_regions(net, spec, Config(mode=mode, max_depth=5))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_enumerate_partition_covers_region(demo_net, le15):
    report = enumerate_regions(demo_net, le15, Config(precision=0.25, max_depth=12))
    assert report.leaves
    total = sum(np.prod(b.widths()) for b in report.boxes())
    assert total == pytest.approx(2.0 * 4.0, rel=1e-9)
    # no two leaves overlap on an open set
    boxes = report.boxes()
    for a in range(len(boxes)):
        for b in range(a + 1, len(boxes)):
            inter = 1.0
            for da, db in zip(boxes[a].dims, boxes[b].dims):
                inter *= max(0.0, min(da.hi, db.hi) - max(da.lo, db.lo))
            assert inter == 0.0
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
    assert report.counterexamples() == []


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


def test_stats_accounting(demo_net, le15):
    v = verify(demo_net, le15, Config(mode="naive", sample_strategy="corners"))
    s = v.stats
    assert s.nodes_explored >= 1
    assert s.wall_time >= 0.0
    assert s.max_depth >= 0


def test_write_report_verdict(tmp_path, demo_net, le15):
    v = verify(demo_net, le15, Config())
    out = tmp_path / "verdict.json"
    write_report(str(out), v)
    doc = json.loads(out.read_text())
    assert doc["status"] == "insecure"
    assert len(doc["counterexample"]) == 2
    assert "nodes_explored" in doc["stats"]


def test_write_report_partition(tmp_path, demo_net, le20):
    report = enumerate_regions(demo_net, le20, Config())
    out = tmp_path / "partition.json"
    write_report(str(out), report)
    doc = json.loads(out.read_text())
    assert doc["leaves"][0]["status"] == "secure"
    assert len(doc["leaves"][0]["box"]) == 2


def test_robustness_end_to_end(demo_net):
    from relucheck.properties import RobustnessSpec, robustness_to_property

    # single output: IsMax(0) desugars to an empty And, trivially true
    spec = robustness_to_property(RobustnessSpec([5.0, 3.0], 0.5, label=0))
    assert verify(demo_net, spec, Config()).status is Status.SECURE
