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
node count, counterexample, leaves or run stats (all but the wall time)
differ between the trees is printed, then two summary lines per workload
and seed. The first also gives each tree's total of waves (calls to
`engine._Run.process`; a wave that overflows and falls back to its first
row alone counts once) and of the boxes bounded (the sizes of the stacks
the engine passes to `symbolic_forward` and `naive_forward`); these are
reported, not compared. The second tallies the differing runs by their
move from ROOT_A's status to ROOT_B's, and counts those that take more
nodes and fewer nodes under ROOT_B. Exits 1 on any difference, else 0.
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


def run_tree(src, cases_path):
    """In a child process: every case in both modes, as parsed and
    negated, against the relucheck under `src`, as one JSON line per run on
    stdout."""
    sys.path[:0] = [os.path.abspath(src), BENCH]
    import relucheck as rc
    from child import load_all, run_case

    if not os.path.abspath(rc.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"relucheck imported from {rc.__file__}, not from {src}")

    # the stats of each run's result, but its wall time, and the waves it
    # evaluated and the boxes they bounded
    stats, work = {}, {}
    for name in ("verify", "enumerate_regions"):
        def capture(*args, run=getattr(rc, name)):
            work.update(waves=0, boxes=0)
            result = run(*args)
            stats.update(result.stats.to_dict())
            del stats["wall_time"]
            return result

        setattr(rc, name, capture)

    def counted(run, *args, process=rc.engine._Run.process):
        work["waves"] += 1
        return process(run, *args)

    rc.engine._Run.process = counted
    for name in ("symbolic_forward", "naive_forward"):
        def bounded(net, box, forward=getattr(rc.engine, name)):
            work["boxes"] += len(box.ends) if box.ends.ndim == 3 else 1
            return forward(net, box)

        setattr(rc.engine, name, bounded)

    with open(cases_path) as f:
        cases = json.load(f)
    nets, specs = load_all(rc, cases)
    for i, (case, net, (regions, constraint)) in enumerate(zip(cases, nets, specs)):
        for negated, c in ((False, constraint), (True, rc.properties.Not(constraint))):
            for mode in MODES:
                _, _, status, nodes, extra = run_case(rc, dict(case, mode=mode), net, (regions, c))
                print(json.dumps({"i": i, "mode": mode, "negated": negated, "status": status, "nodes": nodes,
                                  **extra, "stats": stats, **work}))


def compare(roots, name, seed, env):
    """Run one workload at one seed against both trees; print every run
    that differs and a summary line. Returns the number of differences."""
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
    # (waves, boxes) of each tree, taken out of the runs it compares
    work = [[sum(r.pop(k) for r in rs) for k in ("waves", "boxes")] for rs in runs]
    differ = 0
    moves, more, fewer = collections.Counter(), 0, 0
    for a, b in zip(*runs):
        if a != b:
            differ += 1
            moves[f"{a['status']} -> {b['status']}"] += 1
            more += b["nodes"] > a["nodes"]
            fewer += b["nodes"] < a["nodes"]
            case = cases[a["i"]]
            same = (a["status"], a["nodes"]) == (b["status"], b["nodes"])
            print(f"case {a['i']} ({os.path.basename(case['net'])}, {os.path.basename(case['prop'])}), "
                  f"mode {a['mode']}{', negated' if a['negated'] else ''}: "
                  f"{a['status']}/{a['nodes']} nodes vs {b['status']}/{b['nodes']} nodes"
                  + (", counterexample, leaves or stats differ" if same else ""))
    total = len(runs[0])
    if total != len(runs[1]) or total != 4 * len(cases):
        print(f"run counts differ: {total} vs {len(runs[1])}, {len(cases)} cases")
        differ += 1
    negated = sum(r["negated"] for r in runs[0])
    print(f"{name} seed {seed}: {total} runs ({negated} negated), {differ} differ; "
          + " vs ".join(f"{w:,} waves, {b:,} boxes bounded" for w, b in work))
    print(f"{name} seed {seed}: differing runs "
          + (", ".join(f"{move} {n}" for move, n in sorted(moves.items())) or "none")
          + f"; {more} take more nodes and {fewer} fewer under B", flush=True)
    return differ


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
    differ = sum(compare(roots, name, seed, env) for name in names for seed in seeds)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
