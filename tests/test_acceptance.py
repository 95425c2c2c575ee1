"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
PASS/FAIL line (visible with ``pytest -s`` or on failure).
"""

import glob
import os
import time

import numpy as np
import pytest

from relucheck.data import shipped_path
from relucheck.engine import Config, Status, SubStatus, enumerate_regions, verify
from relucheck.gradients import backward_gradient
from relucheck.intervals import Box, Interval, iv_bisect
from relucheck.network import eval_concrete, eval_concrete_batch, load_network
from relucheck.propagate import naive_forward, symbolic_forward
from relucheck.properties import OutLE, InputSpec, check_concrete, parse_property

from conftest import random_box, random_net, sample_points


def _report(num, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def le15(demo_net):
    with open(shipped_path("le15.prop"), "rb") as f:
        return parse_property(f, num_outputs=demo_net.output_dim)


@pytest.fixture(scope="module")
def le20(demo_net):
    with open(shipped_path("le20.prop"), "rb") as f:
        return parse_property(f, num_outputs=demo_net.output_dim)


def test_criterion_1_golden_bounds(demo_net, demo_box):
    """Exact reference bounds on the worked 2-2-1 example net."""
    t0 = time.monotonic()

    def close(got, want, scale):
        # outward slack is measured in ULPs at the interval's magnitude
        return abs(got - want) <= 2 * np.spacing(scale)

    nv = naive_forward(demo_net, demo_box).out_bounds[0]
    sy = symbolic_forward(demo_net, demo_box).out_bounds[0]
    left, right = iv_bisect(demo_box, 1)
    children = [naive_forward(demo_net, b).out_bounds[0] for b in (left, right)]
    union = Interval(min(c.lo for c in children), max(c.hi for c in children))
    elapsed = time.monotonic() - t0

    ok = (
        close(nv.lo, 0.0, 22.0)
        and close(nv.hi, 22.0, 22.0)
        and close(sy.lo, 6.0, 16.0)
        and close(sy.hi, 16.0, 16.0)
        and close(union.lo, 2.0, 20.0)
        and close(union.hi, 20.0, 20.0)
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"naive=[{nv.lo:.3g},{nv.hi:.3g}] symbolic=[{sy.lo:.3g},{sy.hi:.3g}] "
        f"split=[{union.lo:.3g},{union.hi:.3g}] time={elapsed:.3f}s",
    )


def test_criterion_2_sandwich_suite():
    """concrete output in symbolic bounds in naive bounds, 500 nets."""
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    violations = 0
    for _ in range(500):
        net = random_net(rng)
        box = random_box(rng, net.input_dim)
        sym = symbolic_forward(net, box)
        nai = naive_forward(net, box)
        ys = eval_concrete_batch(net, sample_points(rng, box, 1000))
        for i in range(net.output_dim):
            s, n = sym.out_bounds[i], nai.out_bounds[i]
            tol = 1e-10 * max(abs(n.lo), abs(n.hi), 1.0)
            if s.lo < n.lo - tol or s.hi > n.hi + tol:
                violations += 1
            if np.any(ys[:, i] < s.lo - tol) or np.any(ys[:, i] > s.hi + tol):
                violations += 1
    elapsed = time.monotonic() - t0
    _report(2, violations == 0 and elapsed < 60.0, f"violations={violations} time={elapsed:.1f}s")


def _grid_union_widths(net, box, n):
    """Union of symbolic output bounds over the uniform n x ... x n grid."""
    d = len(box)
    lo, hi = box.lo, box.hi
    edges = [np.linspace(lo[j], hi[j], n + 1) for j in range(d)]
    union_lo = np.full(net.output_dim, np.inf)
    union_hi = np.full(net.output_dim, -np.inf)
    for idx in np.ndindex(*([n] * d)):
        cell = Box(
            [edges[j][idx[j]] for j in range(d)],
            [edges[j][idx[j] + 1] for j in range(d)],
        )
        fr = symbolic_forward(net, cell)
        for i, iv in enumerate(fr.out_bounds):
            union_lo[i] = min(union_lo[i], iv.lo)
            union_hi[i] = max(union_hi[i], iv.hi)
    return union_hi - union_lo


def test_criterion_3_convergence_suite():
    """Union width shrinks monotonically under uniform refinement."""
    rng = np.random.default_rng(33)
    violations = 0
    for _ in range(50):
        net = random_net(rng, d=2)
        box = random_box(rng, 2)
        widths = [_grid_union_widths(net, box, n) for n in (1, 2, 4, 8, 16)]
        for prev, cur in zip(widths, widths[1:]):
            slack = 1e-9 * np.maximum(np.abs(prev), 1.0)
            if np.any(cur > prev + slack):
                violations += 1
        if np.any(widths[-1] > widths[0] + 1e-9 * np.maximum(np.abs(widths[0]), 1.0)):
            violations += 1
    _report(3, violations == 0, f"violations={violations}")


def test_criterion_4_gradient_containment():
    """Central finite differences stay inside the interval Jacobian."""
    rng = np.random.default_rng(44)
    violations = 0
    nets_done = 0
    while nets_done < 50:
        net = random_net(rng)
        box = random_box(rng, net.input_dim)
        J = backward_gradient(net, symbolic_forward(net, box).masks)
        lo, hi = box.lo, box.hi
        h = 1e-5 * box.widths()
        points_done = 0
        attempts = 0
        while points_done < 100 and attempts < 2000:
            attempts += 1
            x = rng.uniform(lo + 2 * h, hi - 2 * h)
            # skip points near a ReLU kink, where the derivative jumps
            v, near = x, False
            for layer in net.layers[:-1]:
                z = v @ layer.W.T + layer.b
                if np.any(np.abs(z) < 1e-3):
                    near = True
                    break
                v = np.maximum(z, 0.0)
            if near:
                continue
            g = np.zeros((net.output_dim, net.input_dim))
            for j in range(net.input_dim):
                xp, xm = x.copy(), x.copy()
                xp[j] += h[j]
                xm[j] -= h[j]
                g[:, j] = (eval_concrete(net, xp) - eval_concrete(net, xm)) / (2 * h[j])
            tol = 1e-4 * np.maximum(np.abs(g), 1.0)
            if np.any(g < J[0] - tol) or np.any(g > J[1] + tol):
                violations += 1
            points_done += 1
        nets_done += 1
    _report(4, violations == 0, f"violations={violations}")


@pytest.fixture(scope="module")
def verdict_cases():
    """200 random 2-input nets with threshold properties and verdicts."""
    rng = np.random.default_rng(55)
    cases = []
    cfg = Config(precision=1e-4, timeout=5.0, max_depth=24)
    for _ in range(200):
        net = random_net(rng, d=2, m=1)
        box = random_box(rng, 2, min_width=0.1, max_width=0.4)
        b = symbolic_forward(net, box).out_bounds[0]
        # thresholds spread over and slightly beyond the output range
        c = float(rng.uniform(b.lo - 0.1 * (b.hi - b.lo + 1), b.hi + 0.1 * (b.hi - b.lo + 1)))
        spec = (InputSpec((box,)), OutLE(0, c))
        cases.append((net, box, c, spec, verify(net, spec, cfg)))
    return cases


def test_criterion_5_brute_force_oracle(verdict_cases):
    """Secure never contradicted by a 1e-3 grid; Insecure points verified."""
    t0 = time.monotonic()
    contradictions = 0
    bad_cex = 0
    secure = insecure = unknown = 0
    for net, box, c, _, v in verdict_cases:
        if v.status is Status.SECURE:
            secure += 1
            lo, hi = box.lo, box.hi
            axes = [np.arange(lo[j], hi[j] + 1e-3, 1e-3) for j in range(2)]
            gx, gy = np.meshgrid(*axes, indexing="ij")
            pts = np.column_stack([gx.ravel(), gy.ravel()])
            ys = eval_concrete_batch(net, pts)
            if np.any(ys[:, 0] > c):
                contradictions += 1
        elif v.status is Status.INSECURE:
            insecure += 1
            if not eval_concrete(net, v.counterexample)[0] > c:
                bad_cex += 1
        else:
            unknown += 1
    elapsed = time.monotonic() - t0
    ok = contradictions == 0 and bad_cex == 0 and elapsed < 300.0
    _report(
        5,
        ok,
        f"secure={secure} insecure={insecure} unknown={unknown} "
        f"contradictions={contradictions} bad_cex={bad_cex} time={elapsed:.1f}s",
    )


def test_criterion_6_worker_determinism(demo_net, le15, le20, verdict_cases):
    """Statuses identical at 1, 4, and 8 workers."""
    mismatches = 0
    cfg5 = Config(precision=1e-4, timeout=5.0, max_depth=24)
    subset = verdict_cases[:20]
    for workers in (4, 8):
        for spec, base in ((le20, None), (le15, None)):
            one = verify(demo_net, spec, Config(workers=1))
            many = verify(demo_net, spec, Config(workers=workers))
            if one.status is not many.status:
                mismatches += 1
        for net, _, _, spec, base in subset:
            got = verify(
                net,
                spec,
                Config(precision=1e-4, timeout=5.0, max_depth=24, workers=workers),
            )
            if got.status is not base.status:
                mismatches += 1
    _report(6, mismatches == 0, f"mismatches={mismatches}")


def test_criterion_7_enumerate_consistency(demo_net, le15):
    """The partition tiles the region; leaf labels are spot-checked."""
    report = enumerate_regions(demo_net, le15, Config(precision=0.25, max_depth=16))
    region_volume = 2.0 * 4.0
    total = sum(float(np.prod(b.widths())) for b, _, _ in report.leaves)
    coverage_ok = abs(total - region_volume) <= 1e-9 * region_volume

    rng = np.random.default_rng(77)
    bad = 0
    for box, status, cex in report.leaves:
        if status is SubStatus.INSECURE_SUB:
            if cex is None or not eval_concrete(demo_net, cex)[0] > 15.0:
                bad += 1
        elif status is SubStatus.SECURE_SUB:
            ys = eval_concrete_batch(demo_net, sample_points(rng, box, 1000))
            if np.any(ys[:, 0] > 15.0):
                bad += 1
    ok = coverage_ok and bad == 0
    _report(7, ok, f"leaves={len(report.leaves)} volume={total:.9f}/{region_volume} bad={bad}")


def test_criterion_8_width_reduction_and_optional_models():
    """Symbolic never wider than naive on average, per net; optional
    full-scale collision-avoidance check runs only when NNET-lite model
    files (*.nnl) are supplied under models/."""
    rng = np.random.default_rng(88)
    worse_nets = 0
    naive_total = symbolic_total = 0.0
    for _ in range(100):
        net = random_net(rng)
        box = random_box(rng, net.input_dim)
        nv = naive_forward(net, box)
        sy = symbolic_forward(net, box)
        wn = np.mean([iv.hi - iv.lo for iv in nv.out_bounds])
        ws = np.mean([iv.hi - iv.lo for iv in sy.out_bounds])
        naive_total += wn
        symbolic_total += ws
        if ws > wn * (1 + 1e-10):
            worse_nets += 1
    reduction = 100.0 * (1.0 - symbolic_total / naive_total)

    models = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "models", "*.nnl")))
    model_note = "no model files, full-scale check skipped"
    models_ok = True
    if models:
        cfg = Config(timeout=600.0)
        with open(models[0], "rb") as f:
            net = load_network(f)
        for prop in ("phi5.prop", "phi10.prop"):
            with open(shipped_path(prop), "rb") as f:
                spec = parse_property(f, num_outputs=net.output_dim)
            v = verify(net, spec, cfg)
            if v.status is Status.UNKNOWN:
                models_ok = False
        model_note = f"checked {os.path.basename(models[0])}"

    ok = worse_nets == 0 and models_ok
    _report(8, ok, f"width_reduction={reduction:.2f}% worse_nets={worse_nets}; {model_note}")
