"""Seeded workload generation: network and property files plus a case list.

Every number comes from a `random.Random` seeded with the workload name and
the seed, so one seed always gives byte-identical files. Weights are written
with `repr`, which round-trips float64 exactly.
"""

from __future__ import annotations

import json
import os
import random
import shutil

from exact import read_net

# ACAS Xu input normalization (mean, range) for rho, theta, psi, v_own, v_int
ACAS_NORM = [(19791.091, 60261.0), (0.0, 6.28318530718), (0.0, 6.28318530718), (650.0, 1100.0), (600.0, 1200.0)]
ACAS_PROPS = [f"phi{k}.prop" for k in range(1, 16)] + [f"s{k}.prop" for k in range(1, 4)]


def _net_text(rng, sizes, norm=None):
    lines = [f"{len(sizes) - 1} {sizes[0]} {sizes[-1]} {max(sizes)}", ",".join(map(str, sizes))]
    if norm is not None:
        lines.append("norm: " + " ".join(f"{m!r},{r!r}" for m, r in norm))
    for k in range(len(sizes) - 1):
        scale = (2.0 / sizes[k]) ** 0.5
        for _ in range(sizes[k + 1]):
            lines.append(",".join(repr(rng.gauss(0.0, scale)) for _ in range(sizes[k])))
        lines.append(",".join(repr(rng.gauss(0.0, 0.1)) for _ in range(sizes[k + 1])))
    return "\n".join(lines) + "\n"


def _prop_text(region, constraint, outputs):
    lines = [f"outputs: {outputs}", "units: raw", "domain:"]
    lines += [f"{lo!r} {hi!r}" for lo, hi in region]
    lines += ["region:"] + ["*"] * len(region)
    lines += ["constraint:", constraint]
    return "\n".join(lines) + "\n"


def _float_forward(net, x):
    """Plain float64 forward pass, used only to place thresholds."""
    v = list(x)
    last = len(net.float_layers) - 1
    for k, (W, b) in enumerate(net.float_layers):
        v = [sum(w * a for w, a in zip(row, v)) + c for row, c in zip(W, b)]
        if k != last:
            v = [a if a > 0.0 else 0.0 for a in v]
    return v


def _sample_outputs(rng, net, region):
    return [_float_forward(net, [rng.uniform(lo, hi) for lo, hi in region]) for _ in range(SAMPLES)]


def _threshold_prop(rng, ys, region, offsets, k):
    """The k-th `le`/`diffle` property over `region`, threshold near the max.

    The threshold is the maximum over the sampled outputs `ys` plus an
    offset, in units of the sampled range, drawn from the k-th entry of
    `offsets` (cycled). Fixed offset bands give every seed the same mix of
    cases: below the max (Insecure), just above it (hard), far above it
    (Secure).
    """
    if k % 2:
        i, j = rng.sample(range(len(ys[0])), 2)
        vals = [y[i] - y[j] for y in ys]
        atom = f"diffle {i} {j}"
    else:
        i = rng.randrange(len(ys[0]))
        vals = [y[i] for y in ys]
        atom = f"le {i}"
    top, spread = max(vals), max(vals) - min(vals)
    lo, hi = offsets[k % len(offsets)]
    c = top + rng.uniform(lo, hi) * spread
    return _prop_text(region, f"{atom} {c!r}", len(ys[0]))


def _write(path, text):
    with open(path, "w") as f:
        f.write(text)


# Bump when generation changes, so pinned verdicts of older files are not used.
GENERATOR = "1"

# Per-workload shape of the case list. A case is one verify or enumerate
# call with a depth cap as its budget; counts are fixed so `nodes` is a
# function of the seed alone. Case counts are large because every seed
# draws new networks: sums and percentiles over hundreds of cases vary
# little from seed to seed. small-verify's depth cap of 7 binds on about a
# quarter of its cases (its Unknown verdicts), far more than the ten beyond
# the tail percentile, so the tail case's node count varies little from seed
# to seed too; with a cap of 8 it does not bind there and varies by 10-20%.
SPEC = {
    "acas-deep": {"nets": 64, "kind": "verify", "mode": "symbolic", "workers": 1, "max_depth": 4},
    "small-verify": {
        "nets": 300, "props": 2, "hidden": [20], "kind": "verify", "mode": "symbolic", "workers": 1,
        "max_depth": 7, "offsets": [(0.3, 1.0), (-0.05, 0.3)],
    },
    "naive-partition": {
        "nets": 100, "props": 4, "hidden": [16, 16], "kind": "enumerate", "mode": "naive", "workers": 2,
        "max_depth": 8, "offsets": [(-0.3, 0.0), (0.0, 1.0), (1.0, 3.0), (-0.3, 0.0)],
    },
}
SMALL_DOMAIN = [(-1.0, 1.0)] * 3
SAMPLES = 64  # points sampled to place each threshold


def _sub_box(rng, domain):
    """A random sub-box covering a quarter to a half of each input range."""
    out = []
    for lo, hi in domain:
        w = (hi - lo) * rng.uniform(0.25, 0.5)
        a = rng.uniform(lo, hi - w)
        out.append((a, a + w))
    return out


def generate(name, seed, outdir, props_dir, workers):
    """Write the workload's files into `outdir`; return the case list."""
    spec = SPEC[name]
    rng = random.Random(f"{name}:{seed}")
    if os.path.isdir(outdir):
        shutil.rmtree(outdir)
    os.makedirs(outdir)
    cases = []
    base = {k: spec[k] for k in ("kind", "mode", "max_depth")}
    base["workers"] = workers
    for n in range(spec["nets"]):
        net_path = os.path.join(outdir, f"net{n}.nnl")
        if name == "acas-deep":
            _write(net_path, _net_text(rng, [5] + [50] * 6 + [5], ACAS_NORM))
            for p in ACAS_PROPS:
                dst = os.path.join(outdir, p)
                if not os.path.exists(dst):
                    shutil.copyfile(os.path.join(props_dir, p), dst)
                cases.append(dict(base, net=net_path, prop=dst))
            continue
        sizes = [len(SMALL_DOMAIN)] + spec["hidden"] + [2]
        _write(net_path, _net_text(rng, sizes))
        net = read_net(net_path)
        # small-verify checks the whole domain, naive-partition a sub-box per case
        shared = _sample_outputs(rng, net, SMALL_DOMAIN) if name == "small-verify" else None
        for k in range(spec["props"]):
            region = SMALL_DOMAIN if shared is not None else _sub_box(rng, SMALL_DOMAIN)
            ys = shared if shared is not None else _sample_outputs(rng, net, region)
            prop_path = os.path.join(outdir, f"net{n}_p{k}.prop")
            _write(prop_path, _threshold_prop(rng, ys, region, spec["offsets"], n * spec["props"] + k))
            cases.append(dict(base, net=net_path, prop=prop_path))
    with open(os.path.join(outdir, "cases.json"), "w") as f:
        json.dump(cases, f, indent=1)
    return cases
