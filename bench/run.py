"""relucheck benchmark: time to verdict and nodes/s on seeded workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload acas-deep --seed 0 --seconds 30 --trace 0

The benchmark writes the workload's network and property files from the
seed (under .bench_work/), runs every case through the library entry
points (load_network, parse_property, verify, enumerate_regions) in a child
process, one case at a time, and checks every verdict independently in
exact rational arithmetic. The child imports relucheck from ./src, so
nothing needs installing; it gets one BLAS thread and a wall-clock guard,
so a hang becomes failed cases instead of a stuck run.

The host this runs on is shared, and its speed drifts by 20% and more
within minutes. So every time in the end-to-end metrics is scaled by the
host's speed around it: the child times a fixed reference computation
(child.reference, numpy and Python only, run with as many threads as the
timed work) between cases and around each set-up repeat, and a time t
measured where the nearby reference samples have the median r is
reported as t * REF_S / r, i.e. in seconds of a host on which the
reference takes REF_S. The reference calls no relucheck code, so a
change to the package moves these times as much as it moves raw ones. The
raw times are in the report.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of one
traced pass (spans recorded from outside the package, see spans.py).
Lines before it are a readable summary; .bench_work/reports/ holds one
JSON report per run with the details (environment, per-case verdicts,
nodes and times, failures).
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import queue
import random
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from exact import read_net, read_prop, tiles  # noqa: E402
import workloads  # noqa: E402

from child import CASE_TIMEOUT  # noqa: E402

GUARD_S = 150.0  # wall-clock limit for the child process
ORACLE_POINTS = {"acas-deep": 8, "small-verify": 16, "naive-partition": 16}
TAIL_BEYOND = 10  # the tail percentile keeps this many cases beyond it
REF_S = 0.002  # nominal reference time, about its in-run median on a 2-vCPU cloud host
REF_NEAR = 41  # reference samples whose median gives the host speed at a time


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.SPEC))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# the child process


def run_child(cases_path, workdir, seconds, trace):
    """Start child.py and collect its JSON lines until it ends or the guard fires."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), cases_path,
           os.path.join(ROOT, "src"), str(seconds), str(trace), workdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    lines = queue.Queue()

    def reader():
        try:
            for line in proc.stdout:
                lines.put(json.loads(line))
        finally:
            lines.put(None)

    t = threading.Thread(target=reader, daemon=True)
    t.start()
    deadline = time.monotonic() + GUARD_S
    out, hung = [], False
    while True:
        try:
            msg = lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            hung = True
            break
        if msg is None:
            break
        out.append(msg)
    if hung:
        proc.kill()
    proc.wait()
    t.join(timeout=5)
    proc.stdout.close()
    return out, hung, proc.returncode


class HostSpeed:
    """Scales times measured in the child to the nominal host speed."""

    def __init__(self, samples):
        samples = sorted(samples)
        self.mids = [m for m, _ in samples]
        self.durs = [d for _, d in samples]

    def factor(self, t):
        """REF_S over the median of the REF_NEAR samples nearest to time t."""
        n = len(self.durs)
        k = min(REF_NEAR, n)
        lo = min(max(0, bisect.bisect_left(self.mids, t) - k // 2), n - k)
        return REF_S / statistics.median(self.durs[lo:lo + k])

    def scale(self, t0, t):
        return t * self.factor(t0 + t / 2)


# ---------------------------------------------------------------------------
# independent checks


def _violated(net, prop, x):
    return not prop.holds(net.forward(x))


def _oracle_points(rng, region, n):
    pts = [[(lo + hi) / 2.0 for lo, hi in region]]
    pts += [[rng.uniform(lo, hi) for lo, hi in region] for _ in range(n)]
    return pts


def check_verify(res, net, prop, rng, n_points):
    """Reason the verdict is wrong, or None."""
    if res["status"] == "insecure":
        x = res.get("cex")
        if x is None:
            return "insecure without a counterexample"
        if not prop.in_region(x):
            return "counterexample outside the input region"
        if not _violated(net, prop, x):
            return "counterexample does not violate the constraint exactly"
    elif res["status"] == "secure":
        for region in prop.regions:
            for x in _oracle_points(rng, region, n_points):
                if _violated(net, prop, x):
                    return f"secure, but {x} violates the constraint exactly"
    return None


def check_partition(res, net, prop, rng, n_points):
    leaves = res["leaves"]
    region = prop.regions[0]
    if len(prop.regions) != 1 or not tiles(region, [leaf[0] for leaf in leaves]):
        return "leaves do not tile the region"
    for box, status, cex in leaves:
        if status == "i":
            if cex is None or not all(lo <= v <= hi for v, (lo, hi) in zip(cex, box)):
                return "insecure leaf without a counterexample inside it"
            if not _violated(net, prop, cex):
                return "leaf counterexample does not violate the constraint exactly"
    for x in _oracle_points(rng, region, n_points):
        for box, status, _ in leaves:
            if all(lo <= v <= hi for v, (lo, hi) in zip(x, box)):
                if status == "s" and _violated(net, prop, x):
                    return f"secure leaf contains {x}, which violates the constraint exactly"
                break
    return None


def load_pinned(name, seed):
    path = os.path.join(HERE, "pinned.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        doc = json.load(f)
    if doc.get("generator") != workloads.GENERATOR:
        return None
    return doc.get("verdicts", {}).get(name, {}).get(str(seed))


# ---------------------------------------------------------------------------
# metrics


def quantile_tail(values):
    """Highest percentile with TAIL_BEYOND values beyond it: (value, percentile)."""
    s = sorted(values)
    k = len(s) - TAIL_BEYOND - 1
    if k < 0:
        return s[-1], 100.0
    return s[k], 100.0 * (k + 1) / len(s)


def metric(value, unit):
    return {"value": value, "unit": unit}


def check_cases(args, spec, cases, per_pass):
    """{case index: reason} for every case that failed or whose output is wrong."""
    first = per_pass.get(0, {})
    pinned = load_pinned(args.workload, args.seed)
    if pinned is not None and len(pinned) != len(cases):
        print("note: pinned verdicts do not match this case list; not checked against", file=sys.stderr)
        pinned = None
    check = check_verify if spec["kind"] == "verify" else check_partition
    nets, props, failures = {}, {}, {}
    for i, case in enumerate(cases):
        res = first.get(i)
        reason = None
        if res is None:
            reason = "not finished"
        elif "error" in res:
            reason = res["error"]
            print(res["traceback"], file=sys.stderr)
        elif res["t"] >= CASE_TIMEOUT:
            reason = "ended by the wall-clock timeout"
        else:
            for p, results in per_pass.items():
                other = results.get(i)
                if p and other is not None and (other.get("status"), other.get("nodes")) != (res["status"], res["nodes"]):
                    reason = f"pass {p} gave {other.get('status')}/{other.get('nodes')} nodes"
            if reason is None and pinned is not None:
                want = {"S": "secure", "I": "insecure"}.get(pinned[i])
                if want and res["status"] != "unknown" and res["status"] != want:
                    reason = f"pinned {want}, got {res['status']}"
            if reason is None:
                if case["net"] not in nets:
                    nets[case["net"]] = read_net(case["net"])
                if case["prop"] not in props:
                    props[case["prop"]] = read_prop(case["prop"])
                rng = random.Random(f"oracle:{args.seed}:{i}")
                reason = check(res, nets[case["net"]], props[case["prop"]], rng, ORACLE_POINTS[args.workload])
        if reason is not None:
            failures[i] = reason
    return failures


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "relucheck", "__init__.py")):
        print(f"error: no relucheck sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = workloads.SPEC[args.workload]
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workdir = os.path.join(ROOT, ".bench_work", args.workload)
    cases = workloads.generate(
        args.workload, args.seed, workdir, os.path.join(ROOT, "src", "relucheck", "props"),
        workers=min(spec["workers"], nproc),
    )
    msgs, hung, code = run_child(os.path.join(workdir, "cases.json"), workdir, args.seconds, args.trace)

    env = next((m for m in msgs if m["type"] == "env"), {})
    setup = next((m["times"] for m in msgs if m["type"] == "setup"), None)
    untraced = [m["pass"] for m in msgs if m["type"] == "pass" and not m["traced"]]
    done = next((m for m in msgs if m["type"] == "done"), None)
    trace = next((m for m in msgs if m["type"] == "trace"), None)
    workers = cases[0]["workers"]
    refs = {w: [(m["mid"], m["t"]) for m in msgs if m["type"] == "ref" and m["workers"] == w] for w in (1, workers)}
    per_pass = {}
    for m in msgs:
        if m["type"] == "case":
            per_pass.setdefault(m["pass"], {})[m["i"]] = m
    first = per_pass.get(0, {})
    if not setup or not all(refs.values()) or not any("t" in r for r in first.values()):
        print(f"error: no case finished (child exit code {code})", file=sys.stderr)
        return 1
    speed, setup_speed = HostSpeed(refs[workers]), HostSpeed(refs[1])
    for results in per_pass.values():
        for r in results.values():
            if "t" in r:
                r["ts"] = speed.scale(r["t0"], r["t"])

    n = len(cases)
    failures = check_cases(args, spec, cases, per_pass)
    if hung:
        failures["guard"] = f"child stopped by the {GUARD_S:.0f} s wall-clock guard"
    failed = len([k for k in failures if k != "guard"])
    correct = not failures and code == 0

    verdicts = "".join(first[i]["status"][0].upper() if "status" in first.get(i, {}) else "E" for i in range(n))
    nodes = sum(r.get("nodes", 0) for r in first.values())
    # a stopped child reports no pass: its finished cases stand in for one
    totals = [sum(r.get("ts", 0.0) for r in per_pass[p].values()) for p in untraced] or [
        sum(r.get("ts", 0.0) for r in first.values())]
    raw_totals = [sum(r.get("t", 0.0) for r in per_pass[p].values()) for p in untraced]
    workload_s = statistics.median(totals)
    # in trace mode pass 1 is the traced run of every case
    timed = [results for p, results in sorted(per_pass.items()) if not (args.trace and p == 1)]
    case_s = [
        statistics.median(ts) if ts else None
        for ts in ([r[i]["ts"] for r in timed if "ts" in r.get(i, {})] for i in range(n))
    ]
    case_times = [t for t in case_s if t is not None]
    tail, tail_pct = quantile_tail(case_times)
    setup_s = [setup_speed.scale(t0, t) for t0, t in setup]

    if args.trace:
        if trace is None:
            print("error: the traced run did not finish", file=sys.stderr)
            return 1
        metrics = trace["metrics"]
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "workload_s": metric(workload_s, "s"),
            "verdict_s.p50": metric(statistics.median(case_times), "s"),
            "verdict_s.tail": metric(tail, "s"),
            "nodes": metric(nodes, "count"),
            "nodes_per_s": metric(nodes / workload_s, "1/s"),
            "decided_frac": metric(sum(v in "SI" for v in verdicts) / n, "ratio"),
            "peak_rss_mb": metric(done["peak_rss_kb"] / 1024.0 if done else float("nan"), "MB"),
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "generator": workloads.GENERATOR,
        "seconds": args.seconds,
        "env": {"nproc": nproc, "python": env.get("python"), "numpy": env.get("numpy"),
                "blas_threads": env.get("blas_threads"), "workers": cases[0]["workers"]},
        "cases": n,
        "passes": len(untraced),
        "ref_s": REF_S,
        "ref_median_s": statistics.median(speed.durs),
        "ref_samples": len(speed.durs),
        "raw_setup_s": [t for _, t in setup],
        "raw_workload_s": raw_totals,
        "workload_s": totals,
        "verdict_samples": sum(len(r) for r in timed),
        "tail_percentile": tail_pct,
        "verdicts": verdicts,
        "case_nodes": [first.get(i, {}).get("nodes") for i in range(n)],
        "case_s": case_s,
        "failures": {str(k): v for k, v in failures.items()},
        "failed_frac": failed / n,
        "child_exit": code,
        "metrics": metrics,
    }
    reports = os.path.join(ROOT, ".bench_work", "reports")
    os.makedirs(reports, exist_ok=True)
    with open(os.path.join(reports, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {n} cases, {len(untraced)} untraced pass(es), "
          f"workers {report['env']['workers']}, nproc {nproc}, python {env.get('python')}, numpy {env.get('numpy')}")
    print(f"  verdicts {verdicts.count('S')} secure, {verdicts.count('I')} insecure, {verdicts.count('U')} unknown; "
          f"failed {failed}/{n} (failed_frac {failed / n:.4f}); "
          f"tail = p{tail_pct:.1f} of {len(case_times)} cases, {report['verdict_samples']} samples")
    raw = f"{statistics.median(raw_totals):.4g} s" if raw_totals else "n/a"
    print(f"  host speed: reference median {report['ref_median_s'] * 1e3:.4g} ms over {len(speed.durs)} samples "
          f"(times scaled to {REF_S * 1e3:.4g} ms); raw workload_s {raw}")
    for k, v in failures.items():
        print(f"  FAILED case {k}: {v}")
    for key, m in metrics.items():
        print(f"  {key:<44} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
