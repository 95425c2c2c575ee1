"""The benchmark under bench/ drives the package from outside: it patches
module attributes to trace calls between layers and reads results through
the public types. These tests pin every name and shape it relies on, so a
change to the package cannot break the benchmark unnoticed."""

import importlib.util
import random
from pathlib import Path

import pytest

import relucheck as rc
from relucheck.data import shipped_path
from relucheck.intervals import Interval

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def child():
    return _load("child")


@pytest.fixture(scope="module")
def harness():
    return _load("run")


def _cases():
    common = {"net": str(shipped_path("demonet.nnl")), "prop": str(shipped_path("le15.prop"))}
    return [
        dict(common, kind="verify", mode="symbolic", workers=1, max_depth=4),
        dict(common, kind="verify", mode="naive", workers=2, max_depth=4),
        dict(common, kind="enumerate", mode="naive", workers=2, max_depth=3),
    ]


def test_traced_names_resolve(spans):
    for module, attr, _ in spans.TARGETS:
        assert callable(getattr(getattr(rc, module), attr)), f"{module}.{attr}"
    for attr, _ in spans.ENTRY:
        assert callable(getattr(rc, attr)), attr
    assert rc.engine.SubStatus.INSECURE_SUB.value == "insecure"
    assert callable(rc.engine._Run._leaf) and callable(rc.engine._Run.process)


def _traced(spans, child, cases):
    """The results of the cases and the metrics of their traced run."""
    tracer = spans.Tracer(rc)
    originals = [getattr(getattr(rc, m), a) for m, a, _ in spans.TARGETS]
    tracer.install()
    try:
        nets, specs = child.load_all(rc, cases)
        tracer.span_setup(lambda: child.load_all(rc, cases))
        results = [child.run_case(rc, c, n, s) for c, n, s in zip(cases, nets, specs)]
    finally:
        tracer.uninstall()
    assert [getattr(getattr(rc, m), a) for m, a, _ in spans.TARGETS] == originals
    return results, tracer.metrics(nets[0], 1.0, 1.0)


def test_traced_run(spans, child):
    cases = _cases()
    results, metrics = _traced(spans, child, cases)
    assert results[0][2] == "insecure"
    assert {r[2] for r in results} <= {"secure", "insecure", "unknown"}
    for name in ("propagate.symbolic_forward", "symbolic.bounds_of_rows", "properties.check_sound"):
        assert metrics[name + ".calls"]["value"] > 0, name
    assert metrics["propagate.unstable_relus.L1"]["value"] >= 0.0
    assert metrics["network.sample_hit_frac"]["value"] > 0.0
    # the engine calls each layer through the module name the tracer
    # patches; a name bound anywhere else would read 0 calls here
    _, metrics = _traced(spans, child, cases[2:])
    for name in (
        "engine.node",
        "intervals.iv_bisect",
        "propagate.naive_forward",
        "network.eval_concrete_batch",
    ):
        assert metrics[name + ".calls"]["value"] > 0, name


def test_partition_leaves_shape(child):
    case = _cases()[2]
    (net,), (spec,) = child.load_all(rc, [case])
    report = rc.enumerate_regions(net, spec, rc.Config(max_depth=3, workers=2, mode="naive"))
    for box, status, cex in report.leaves:
        assert all(isinstance(d, Interval) for d in box.dims)
        assert status.value in ("secure", "insecure", "unknown")
    _, _, _, nodes, extra = child.run_case(rc, case, net, spec)
    assert nodes == report.stats.nodes_explored
    assert len(extra["leaves"]) == len(report.leaves)


def test_attack_decided_case_passes_the_exact_check(spans, child, harness):
    # le 15 on the demo net holds at the root's midpoint (5, 3), and its
    # bounds do not decide it; the root attack climbs to a violating point
    case = _cases()[0]
    (net,), (spec,) = child.load_all(rc, [case])
    v = rc.verify(net, spec, rc.Config(max_depth=case["max_depth"], mode=case["mode"]))
    assert (v.status.value, v.stats.nodes_explored, v.stats.attack_hits) == ("insecure", 1, 1)
    (result,), metrics = _traced(spans, child, [case])
    _, _, status, nodes, extra = result
    assert (status, nodes) == ("insecure", 1)
    assert metrics["propagate.symbolic_forward.calls"]["value"] == 1
    exact = harness.read_net(case["net"]), harness.read_prop(case["prop"])
    res = {"status": status, "cex": extra["cex"]}
    assert harness.check_verify(res, *exact, random.Random(0), 8) is None
    # the exact check does fail a counterexample that does not violate
    res["cex"] = [5.0, 3.0]
    assert harness.check_verify(res, *exact, random.Random(0), 8) is not None
