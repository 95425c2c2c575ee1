"""Time two relucheck source trees case by case, interleaved in one process.

Usage: python tools/interleaved_timing.py ROOT_A ROOT_B WORKLOADS SEED [ROUNDS]

ROOT_A and ROOT_B are source checkouts, each holding src/relucheck.
WORKLOADS is `all` or a comma-separated list of bench/workloads.py names;
ROUNDS defaults to 3. Each tree's package is copied into a temporary
directory under a name of its own, so that both import into this process,
with one BLAS thread. The workloads are timed one after the other. A
workload's cases are generated with bench/workloads.py into that
directory (the property files come from ROOT_A), loaded once per tree,
and each is run once per tree before timing, so that both trees time warm
code. Then, round after round, every case runs through bench/child.py's
`run_case` SETUP_REPEATS times per tree, the trees back to back,
alternating which tree goes first from run to run, from case to case and
from round to round; a case's time in a round is the minimum of its
runs on that tree, since one run of a short case spreads by several
percent. The host's speed drifts over minutes, and the runs of a case
are seconds apart at most. Each round first times each tree's set-up,
bench/child.py's `load_all` of the workload's network and property files,
SETUP_REPEATS times per tree (as bench/child.py does), alternating which
tree goes first from load to load and from round to round; one load
spreads too widely to compare.

Per round, one line gives each tree's median set-up time and the ratio
B/A, then the summed case times of each tree and the ratio B/A, over all
cases and by case class: the cases that take 1 node, 2-10 nodes and 11
or more on ROOT_A, and the TAIL cases slowest on ROOT_A in the untimed
first run, those at and beyond bench/run.py's tail percentile. Exits 1 if
any case's status or node count differs between the trees, else 0.
Nothing under bench/ is written.
"""

from __future__ import annotations

import importlib
import math
import os
import shutil
import statistics
import sys
import tempfile
import time

from bench_cases import BENCH, generate_cases, workload_names

CLASSES = (("1 node", 1, 1), ("2-10 nodes", 2, 10), ("11+ nodes", 11, float("inf")))
# bench/run.py's tail percentile keeps 10 cases beyond it
TAIL = 11
# loads per tree per round whose median is the set-up time, as in
# bench/child.py, and runs of each case per tree per round whose minimum is
# its time
SETUP_REPEATS = 5


def import_tree(root, tmp, name):
    """The relucheck package under `root`, imported as `name` from a copy
    in `tmp`."""
    shutil.copytree(
        os.path.join(root, "src", "relucheck"), os.path.join(tmp, name),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return importlib.import_module(name)


def ratio(label, a, b):
    """The times a and b of the two trees and their ratio B/A."""
    return f"{label}: {a:.3f} s -> {b:.3f} s " + (f"x{b / a:.3f}" if a > 0 else "n/a")


def summary(label, cases, times):
    """The summed times of each tree and their ratio B/A, over `cases`,
    the indices of the cases in the class."""
    return ratio(f"{label} ({len(cases)})", *(sum(t[i] for i in cases) for t in times))


def time_workload(trees, roots, name, seed, rounds, tmp):
    """Time one workload's cases on both trees, printing a line per round
    and a summary line. Returns the number of cases whose status or node
    count differs between the trees."""
    from child import load_all, run_case

    cases = generate_cases(name, seed, os.path.join(tmp, "cases", name), roots[0])
    loaded = [load_all(rc, cases) for rc in trees]

    def run(side, i):
        nets, specs = loaded[side]
        _, t, status, nodes, _ = run_case(trees[side], cases[i], nets[i], specs[i])
        return t, (status, nodes)

    first = [[run(side, i) for i in range(len(cases))] for side in (0, 1)]
    outcome = [[o for _, o in runs] for runs in first]
    tail = sorted(range(len(cases)), key=lambda i: first[0][i][0])[-TAIL:]
    differ = [i for i, (a, b) in enumerate(zip(*outcome)) if a != b]
    for i in differ:
        print(f"case {i} ({os.path.basename(cases[i]['net'])}, {os.path.basename(cases[i]['prop'])}): "
              f"{'/'.join(map(str, outcome[0][i]))} nodes vs {'/'.join(map(str, outcome[1][i]))} nodes")
    nodes = [n for _, n in outcome[0]]
    for r in range(rounds):
        loads = [[], []]
        for rep in range(SETUP_REPEATS):
            for side in ((0, 1) if (rep + r) % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                load_all(trees[side], cases)
                loads[side].append(time.perf_counter() - t0)
        setup = [statistics.median(t) for t in loads]
        times = [[math.inf] * len(cases), [math.inf] * len(cases)]
        for i in range(len(cases)):
            for rep in range(SETUP_REPEATS):
                for side in ((0, 1) if (i + r + rep) % 2 == 0 else (1, 0)):
                    times[side][i] = min(times[side][i], run(side, i)[0])
        parts = [ratio("set-up", *setup), summary("all", range(len(cases)), times)]
        for label, low, high in CLASSES:
            parts.append(summary(label, [i for i, n in enumerate(nodes) if low <= n <= high], times))
        parts.append(summary(f"{TAIL} slowest", tail, times))
        print(f"{name} seed {seed} round {r + 1}: " + "; ".join(parts), flush=True)
    print(f"{name} seed {seed}: {len(cases)} cases, {len(differ)} differ in status or nodes", flush=True)
    return len(differ)


def main(argv):
    if len(argv) not in (5, 6):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    roots, seed = argv[1:3], int(argv[4])
    rounds = int(argv[5]) if len(argv) == 6 else 3
    # before numpy loads its BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, BENCH)
    names = workload_names(argv[3])
    if names is None:
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        trees = [import_tree(root, tmp, f"relucheck_{tag}") for root, tag in zip(roots, "ab")]
        differ = sum(time_workload(trees, roots, name, seed, rounds, tmp) for name in names)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
