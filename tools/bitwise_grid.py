"""Compare two relucheck source trees, run by run, on benchmark workloads.

Usage: python tools/bitwise_grid.py ROOT_A ROOT_B WORKLOADS SEED [SEED ...]

ROOT_A and ROOT_B are source checkouts, each holding src/relucheck.
WORKLOADS is `all` or a comma-separated list of bench/workloads.py names.
For each workload and seed, the cases are generated with bench/workloads.py
into a temporary directory (the property files come from ROOT_A). Each case
runs through bench/child.py's `run_case` four times, in its own mode and in
the other mode, each with its constraint as parsed and wrapped in a `Not`
(no workload property has a negated literal, so only the wrapped runs reach
the strict ones), once against each tree, the two trees at once in child
processes of their own with one BLAS thread each. Every run whose status,
node count, counterexample, leaves or run stats differ between the trees
is printed, then two summary lines per workload and seed. A run whose
status and node count agree is printed with "stats differ" where a
compared run stat differs; else, where only the numbers of its
counterexample and leaf ends differ, with "points differ by at most X
relative", X the largest relative distance between two of them; else
with "leaves differ". The run stats compared are the `RunStats` keys that
both trees report, but the wall time; after a workload's seeds, one line
names the keys that only one tree reports, if any. The first summary line
also gives each tree's total of the `waves` and `boxes_bounded` of its
runs' `RunStats`, or `n/a` for a tree whose `RunStats` lacks them; these
depend on the batching, so they are reported, not compared. The second
tallies the differing runs by their move from ROOT_A's status to ROOT_B's,
counts those that take more nodes and fewer nodes under ROOT_B, and
counts the points-only runs with their largest relative distance. Exits 1
on any difference, points-only runs included, else 0.
Nothing under bench/ is written.
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys
import tempfile

from bench_cases import BENCH, generate_cases, workload_names

MODES = ("symbolic", "naive")
# the RunStats counters that depend on the batching: reported, not compared
WORK = ("waves", "boxes_bounded")


def run_tree(src, cases_path):
    """In a child process: every case in both modes, as parsed and
    negated, against the relucheck under `src`, as one JSON line per run on
    stdout."""
    sys.path[:0] = [os.path.abspath(src), BENCH]
    import relucheck as rc
    from child import load_all, run_case

    if not os.path.abspath(rc.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"relucheck imported from {rc.__file__}, not from {src}")

    # the stats of each run's result, but its wall time, with its waves
    # and boxes bounded kept apart (None where the tree lacks them)
    stats, work = {}, {}
    for name in ("verify", "enumerate_regions"):
        def capture(*args, run=getattr(rc, name)):
            result = run(*args)
            stats.update(result.stats.to_dict())
            del stats["wall_time"]
            work.update((k, stats.pop(k, None)) for k in WORK)
            return result

        setattr(rc, name, capture)

    with open(cases_path) as f:
        cases = json.load(f)
    nets, specs = load_all(rc, cases)
    for i, (case, net, (regions, constraint)) in enumerate(zip(cases, nets, specs)):
        for negated, c in ((False, constraint), (True, rc.properties.Not(constraint))):
            for mode in MODES:
                _, _, status, nodes, extra = run_case(rc, dict(case, mode=mode), net, (regions, c))
                print(json.dumps({"i": i, "mode": mode, "negated": negated, "status": status, "nodes": nodes,
                                  **extra, "stats": stats, **work}))


def point_distance(a, b):
    """The largest relative distance between the floats of two runs'
    records, walked in parallel, or None where they differ in anything
    else."""
    if type(a) is float and type(b) is float:
        return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
    if type(a) is dict and type(b) is dict and a.keys() == b.keys():
        a, b = list(a.values()), [b[k] for k in a]
    if type(a) is list and type(b) is list and len(a) == len(b):
        dists = [point_distance(x, y) for x, y in zip(a, b)]
        return None if None in dists else max(dists, default=0.0)
    return 0.0 if a == b else None


def compare(roots, name, seed, env):
    """Run one workload at one seed against both trees; print every run
    that differs and a summary line. Returns the number of differences and
    the set of `RunStats` keys that only tree A and only tree B report."""
    with tempfile.TemporaryDirectory() as tmp:
        cases = generate_cases(name, seed, os.path.join(tmp, "cases"), roots[0])
        cases_path = os.path.join(tmp, "cases", "cases.json")
        procs = [
            subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--tree", os.path.join(root, "src"), cases_path],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for root in roots
        ]
        outs = [p.communicate()[0] for p in procs]
    for root, p in zip(roots, procs):
        if p.returncode:
            raise SystemExit(f"{name} seed {seed}: the run against {root} exited {p.returncode}")
    runs = [[json.loads(line) for line in out.splitlines()] for out in outs]
    # (waves, boxes bounded) of each tree, taken out of the runs it compares
    work = [[[r.pop(k) for r in rs] for k in WORK] for rs in runs]
    # the stats keys that only one tree reports are not compared
    keys = [{k for r in rs for k in r["stats"]} for rs in runs]
    shared = keys[0] & keys[1]
    for rs in runs:
        for r in rs:
            r["stats"] = {k: r["stats"][k] for k in shared}
    differ = points = 0
    moves, more, fewer, farthest = collections.Counter(), 0, 0, 0.0
    for a, b in zip(*runs):
        if a != b:
            differ += 1
            moves[f"{a['status']} -> {b['status']}"] += 1
            more += b["nodes"] > a["nodes"]
            fewer += b["nodes"] < a["nodes"]
            case = cases[a["i"]]
            why = ""
            if (a["status"], a["nodes"]) != (b["status"], b["nodes"]):
                pass
            elif a["stats"] != b["stats"]:
                why = ", stats differ"
            elif (dist := point_distance(a, b)) is None:
                why = ", leaves differ"
            else:
                points += 1
                farthest = max(farthest, dist)
                why = f", points differ by at most {dist:.3g} relative"
            print(f"case {a['i']} ({os.path.basename(case['net'])}, {os.path.basename(case['prop'])}), "
                  f"mode {a['mode']}{', negated' if a['negated'] else ''}: "
                  f"{a['status']}/{a['nodes']} nodes vs {b['status']}/{b['nodes']} nodes" + why)
    total = len(runs[0])
    if total != len(runs[1]) or total != 4 * len(cases):
        print(f"run counts differ: {total} vs {len(runs[1])}, {len(cases)} cases")
        differ += 1
    negated = sum(r["negated"] for r in runs[0])
    print(f"{name} seed {seed}: {total} runs ({negated} negated), {differ} differ; "
          + " vs ".join("n/a" if None in w + b else f"{sum(w):,} waves, {sum(b):,} boxes bounded"
                        for w, b in work))
    print(f"{name} seed {seed}: differing runs "
          + (", ".join(f"{move} {n}" for move, n in sorted(moves.items())) or "none")
          + f"; {more} take more nodes and {fewer} fewer under B"
          + f"; {points} differ only in points, by at most {farthest:.3g} relative", flush=True)
    return differ, [k - shared for k in keys]


def main(argv):
    if argv[1:2] == ["--tree"]:
        run_tree(argv[2], argv[3])
        return 0
    if len(argv) < 5:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    roots, names = argv[1:3], workload_names(argv[3])
    if names is None:
        return 2
    seeds = [int(a) for a in argv[4:]]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    differ = 0
    for name in names:
        only = [set(), set()]
        for seed in seeds:
            d, one_sided = compare(roots, name, seed, env)
            differ += d
            for keys, new in zip(only, one_sided):
                keys |= new
        if any(only):
            print(f"{name}: RunStats keys not compared, only under A: {', '.join(sorted(only[0])) or 'none'}; "
                  f"only under B: {', '.join(sorted(only[1])) or 'none'}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
