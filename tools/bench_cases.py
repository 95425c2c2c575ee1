"""The benchmark's workloads as the tools in this directory read them:
which workloads a command line names, and the cases of one of them.

bench/workloads.py is imported at first use, so that a tool can set its
BLAS thread count before numpy loads.
"""

from __future__ import annotations

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _workloads():
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import workloads

    return workloads


def workload_names(arg: str):
    """The workloads `arg` names, `all` or a comma-separated list of
    bench/workloads.py names; None, after a line on stderr, if it names
    one that does not exist."""
    workloads = _workloads()
    names = list(workloads.SPEC) if arg == "all" else arg.split(",")
    unknown = [n for n in names if n not in workloads.SPEC]
    if unknown:
        print(f"unknown workloads {unknown}; known: {', '.join(workloads.SPEC)}", file=sys.stderr)
        return None
    return names


def generate_cases(name: str, seed: int, outdir: str, root: str) -> list:
    """Write the cases of workload `name` at `seed` into `outdir` and
    return them, as bench/workloads.py does, with the property files of
    the source tree `root` and no more workers than this process has
    CPUs."""
    workloads = _workloads()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return workloads.generate(
        name, seed, outdir, os.path.join(root, "src", "relucheck", "props"),
        workers=min(workloads.SPEC[name]["workers"], nproc),
    )
