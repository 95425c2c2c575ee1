"""The benchmark under bench/ drives the package from outside: it patches
module attributes to trace calls between layers and reads results through
the public types. These tests pin every name and shape it relies on, so a
change to the package cannot break the benchmark unnoticed."""

import importlib.util
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


def test_traced_run(spans, child):
    cases = _cases()
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
    assert results[0][2] == "insecure"
    assert {r[2] for r in results} <= {"secure", "insecure", "unknown"}
    metrics = tracer.metrics(nets[0], 1.0, 1.0)
    for name in ("propagate.symbolic_forward", "symbolic.bounds_of_rows", "properties.check_sound"):
        assert metrics[name + ".calls"]["value"] > 0, name
    assert metrics["propagate.unstable_relus.L1"]["value"] >= 0.0
    assert metrics["network.sample_hit_frac"]["value"] > 0.0


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
