"""Runs one workload's cases against relucheck; started by run.py.

Usage: child.py CASES_JSON SRC_DIR SECONDS TRACE OUT_DIR

Writes one JSON object per line to stdout: the environment, the set-up
timings, one line per finished case, one line per reference sample, one
line per pass, the trace
aggregates when TRACE is 1, and a final "done" line. Cases run one at a
time (closed loop, one client). Passes over the case list repeat while
another pass still fits in SECONDS; the time left after the last pass
re-times the RETIME slowest cases, round after round, so that the tail
percentile rests on more than one timing per case. In trace mode there
is one pass, and each case runs twice in a row: untraced (pass 0), then
traced (pass 1).

Between cases, at most every REF_EVERY seconds, the child times a fixed
reference computation (`reference`, plain numpy and Python, no relucheck
code, run with the workload's worker count) and reports every such sample with its time, so that run.py can
scale each case's time by the host's speed around it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
import traceback

import numpy as np

SETUP_REPEATS = 5
CASE_TIMEOUT = 120.0  # seconds; a case that reaches it counts as failed
REF_EVERY = 0.02  # seconds between reference samples
REF_BURST = 0.1  # seconds of reference samples around each set-up repeat
RETIME = 40  # slowest cases re-timed in the time left after the last pass
REF_JOBS = 60  # jobs of five steps each in one reference sample

_REF_M = np.linspace(-1.0, 1.0, 400).reshape(20, 20)
_REF_V = np.linspace(0.5, 1.5, 20)


def reference(workers):
    """A fixed mix of small numpy calls and interpreter work (1-2 ms).

    The work is split into REF_JOBS jobs that `workers` threads take from a
    shared counter under a lock (inline when `workers` is 1), the way the
    engine's pool runs nodes, so the reference feels the same contention
    between threads as the workload does. It calls no relucheck code, so a
    change to the package does not change it.
    """
    lock = threading.Lock()
    left = [REF_JOBS]

    def worker():
        acc = 0.0
        while True:
            with lock:
                if not left[0]:
                    return acc
                left[0] -= 1
            for i in range(5):
                w = np.maximum(_REF_M @ _REF_V, 0.0)
                acc += float(w.sum())
                acc += sum([float(i), 1.0, 2.0, acc * 1e-9][k] for k in range(4))

    if workers == 1:
        return worker()
    threads = [threading.Thread(target=worker) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return None


class Speed:
    """Takes reference samples and reports each as a "ref" line: its
    midpoint and duration in perf_counter seconds, and its worker count.
    The set-up is single-threaded, so the samples around it use one
    worker; those between cases use the workload's."""

    def __init__(self, workers):
        self.workers = workers
        self.last = float("-inf")

    def sample(self, workers=None):
        workers = workers or self.workers
        t0 = time.perf_counter()
        reference(workers)
        t1 = time.perf_counter()
        emit({"type": "ref", "mid": (t0 + t1) / 2, "t": t1 - t0, "workers": workers})
        self.last = t1

    def maybe(self):
        if time.perf_counter() - self.last >= REF_EVERY:
            self.sample()

    def burst(self, seconds):
        """Single-threaded samples for `seconds`."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.sample(1)


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def load_all(rc, cases):
    """The set-up: load every network and parse every property file."""
    nets, specs = {}, []
    for case in cases:
        if case["net"] not in nets:
            with open(case["net"], "rb") as f:
                nets[case["net"]] = rc.load_network(f)
        with open(case["prop"], "rb") as f:
            specs.append(rc.parse_property(f, num_outputs=nets[case["net"]].output_dim))
    return [nets[c["net"]] for c in cases], specs


def run_case(rc, case, net, spec):
    cfg = rc.Config(
        max_depth=case["max_depth"],
        workers=case["workers"],
        mode=case["mode"],
        timeout=CASE_TIMEOUT,
    )
    t0 = time.perf_counter()
    if case["kind"] == "verify":
        v = rc.verify(net, spec, cfg)
        t = time.perf_counter() - t0
        cex = None if v.counterexample is None else [float(x) for x in v.counterexample]
        return t0, t, v.status.value, v.stats.nodes_explored, {"cex": cex}
    rep = rc.enumerate_regions(net, spec, cfg)
    t = time.perf_counter() - t0
    leaves = [
        [[[d.lo, d.hi] for d in box.dims], st.value[0], None if cex is None else [float(x) for x in cex]]
        for box, st, cex in rep.leaves
    ]
    statuses = {leaf[1] for leaf in leaves}
    status = "insecure" if "i" in statuses else ("secure" if statuses == {"s"} else "unknown")
    return t0, t, status, rep.stats.nodes_explored, {"leaves": leaves}


def run_one(rc, case, net, spec, index, i, full, speed):
    """Run case i as part of pass `index`; report it; return its time."""
    speed.maybe()
    try:
        t0, t, status, nodes, extra = run_case(rc, case, net, spec)
    except Exception as e:  # reported as a failed case, the run goes on
        emit({"type": "case", "pass": index, "i": i, "error": f"{type(e).__name__}: {e}",
              "traceback": traceback.format_exc()})
        return 0.0
    line = {"type": "case", "pass": index, "i": i, "t0": t0, "t": t, "status": status, "nodes": nodes}
    if full:
        line.update(extra)
    emit(line)
    return t


def run_pass(rc, cases, nets, specs, index, speed, tracer=None):
    """Run every case once. With a tracer, run each case a second time,
    traced, right after the untraced run (as pass index + 1), so both
    runs of a case see the same machine state. Returns the untraced
    total, the traced total and the untraced time of each case."""
    total = traced = 0.0
    times = []
    for i, (case, net, spec) in enumerate(zip(cases, nets, specs)):
        times.append(run_one(rc, case, net, spec, index, i, index == 0, speed))
        total += times[-1]
        if tracer is not None:
            tracer.install()
            try:
                traced += run_one(rc, case, net, spec, index + 1, i, False, speed)
            finally:
                tracer.uninstall()
    return total, traced, times


def retime(rc, cases, nets, specs, index, speed, times, deadline):
    """Re-run the slowest cases, as passes index, index + 1, ..., until the
    next one would end after `deadline` (a perf_counter time)."""
    slow = sorted(range(len(cases)), key=lambda i: -times[i])[:RETIME]
    while True:
        for i in slow:
            if time.perf_counter() + times[i] > deadline:
                return
            run_one(rc, cases[i], nets[i], specs[i], index, i, False, speed)
        index += 1


def main(argv):
    cases_path, src, seconds, trace, out_dir = argv[1], argv[2], float(argv[3]), argv[4] == "1", argv[5]
    sys.path.insert(0, os.path.abspath(src))
    import numpy
    import relucheck as rc

    if not os.path.abspath(rc.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"relucheck imported from {rc.__file__}, not from {src}")
    emit({
        "type": "env",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    })
    with open(cases_path) as f:
        cases = json.load(f)

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer(rc)
    speed = Speed(cases[0]["workers"])
    speed.burst(REF_BURST)
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        nets, specs = load_all(rc, cases)
        setup.append([t0, time.perf_counter() - t0])
        speed.burst(REF_BURST)
    emit({"type": "setup", "times": setup})

    if tracer is not None:
        tracer.install()
        try:
            tracer.span_setup(lambda: load_all(rc, cases))
        finally:
            tracer.uninstall()
        total, traced, _ = run_pass(rc, cases, nets, specs, 0, speed, tracer)
        speed.sample()
        emit({"type": "pass", "pass": 0, "t": total, "traced": False})
        emit({"type": "pass", "pass": 1, "t": traced, "traced": True})
        emit({"type": "trace", "metrics": tracer.metrics(nets[0], total, traced)})
        tracer.write(os.path.join(out_dir, "spans.npz"))
    else:
        start = time.perf_counter()
        index = 0
        while True:
            wall = time.perf_counter()
            total, _, times = run_pass(rc, cases, nets, specs, index, speed)
            speed.sample()
            wall = time.perf_counter() - wall
            emit({"type": "pass", "pass": index, "t": total, "traced": False})
            index += 1
            if time.perf_counter() - start + wall > seconds:
                break
        retime(rc, cases, nets, specs, index, speed, times, start + seconds)
        speed.sample()
    emit({"type": "done", "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})


if __name__ == "__main__":
    main(sys.argv)
