"""Verification driver: bisection tree, sampling, monotonicity reduction,
verdicts, sub-interval enumeration, and the parallel work distribution.

Jobs (sub-boxes of the input region) are independent, so any worker may
process any of them. Each worker keeps a LIFO deque; idle workers steal
the shallowest pending job from the most loaded peer. A found
counterexample sets a global cancellation flag (verify mode only) that is
observed at job boundaries. The final status depends only on the job
tree, never on thread interleaving.
"""

from __future__ import annotations

import collections
import enum
import itertools
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .intervals import Box, RoundingPolicy, DEFAULT_POLICY, iv_bisect
from .network import Network, eval_concrete, eval_concrete_batch, split_weights
from .propagate import naive_forward, symbolic_forward
from .gradients import IntervalJacobian, backward_gradient, smear_split_choice, NoSplittableDimensionError
from .properties import (
    And,
    DiffLE,
    InputSpec,
    Not,
    Or,
    OutGE,
    OutLE,
    SoundCheck,
    TriState,
    check_concrete,
    check_sound,
    desugar,
)

__all__ = [
    "Status",
    "SubStatus",
    "Job",
    "Verdict",
    "Config",
    "PartitionReport",
    "RunStats",
    "internal_view",
    "verify",
    "enumerate_regions",
]


class Status(enum.Enum):
    SECURE = "secure"
    INSECURE = "insecure"
    UNKNOWN = "unknown"


class SubStatus(enum.Enum):
    SECURE_SUB = "secure"
    INSECURE_SUB = "insecure"
    UNKNOWN_SUB = "unknown"


@dataclass(frozen=True)
class Job:
    box: Box
    depth: int = 0


@dataclass
class RunStats:
    nodes_explored: int = 0
    max_depth: int = 0
    depth_total: int = 0
    leaves: int = 0
    wall_time: float = 0.0

    @property
    def avg_depth(self) -> float:
        return self.depth_total / self.leaves if self.leaves else 0.0

    def to_dict(self):
        return {
            "nodes_explored": self.nodes_explored,
            "max_depth": self.max_depth,
            "avg_depth": self.avg_depth,
            "wall_time": self.wall_time,
        }


@dataclass
class Verdict:
    status: Status
    counterexample: Optional[np.ndarray] = None
    stats: RunStats = field(default_factory=RunStats)

    def to_dict(self):
        return {
            "status": self.status.value,
            "counterexample": None
            if self.counterexample is None
            else [float(v) for v in self.counterexample],
            "stats": self.stats.to_dict(),
        }


@dataclass
class PartitionReport:
    leaves: list  # (Box raw units, SubStatus, cex or None)
    stats: RunStats = field(default_factory=RunStats)

    def boxes(self, status: Optional[SubStatus] = None):
        return [b for b, s, _ in self.leaves if status is None or s is status]

    def counterexamples(self):
        return [c for _, s, c in self.leaves if s is SubStatus.INSECURE_SUB]

    def to_dict(self):
        return {
            "leaves": [
                {
                    "box": [[a, b] for a, b in zip(box.lo.tolist(), box.hi.tolist())],
                    "status": status.value,
                    "counterexample": None if cex is None else [float(v) for v in cex],
                }
                for box, status, cex in self.leaves
            ],
            "stats": self.stats.to_dict(),
        }


@dataclass(frozen=True)
class Config:
    precision: float = 1e-6
    timeout: float = 300.0
    max_depth: Optional[int] = None
    workers: int = 1
    mode: str = "symbolic"  # "symbolic" | "naive"
    sample_strategy: str = "midpoint"  # "midpoint" | "corners"
    monotonicity: bool = True
    policy: RoundingPolicy = DEFAULT_POLICY

    def __post_init__(self):
        if self.precision <= 0:
            raise ValueError("precision must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mode not in ("symbolic", "naive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.sample_strategy not in ("midpoint", "corners"):
            raise ValueError(f"unknown sample strategy {self.sample_strategy!r}")


def internal_view(net: Network, input_spec: InputSpec):
    """(core, regions): `net` without its input normalization, and the
    spec's regions in the coordinates that core reads. The analysis runs
    on these."""
    core = Network(net.layers)
    if not (net.has_normalization and input_spec.units == "raw"):
        return core, list(input_spec.regions)
    return core, [
        Box.from_arrays(net.normalize(r.lo), net.normalize(r.hi)) for r in input_spec.regions
    ]


def default_max_depth(regions, precision: float) -> int:
    """ceil(log2(max initial width / precision)) * d, at least 1."""
    d = len(regions[0])
    wmax = max((w for r in regions for w in r.widths()), default=0.0)
    if wmax <= precision:
        return 1
    return max(1, math.ceil(math.log2(wmax / precision)) * d)


# ---------------------------------------------------------------------------
# monotonicity-reduction eligibility

_MAX_REDUCED_DIMS = 3


def _nnf_literals(node, negated=False, acc=None, or_free=None):
    """Collect atom literals in negation normal form; track Or-freeness."""
    if acc is None:
        acc = []
        or_free = [True]
    if isinstance(node, Not):
        _nnf_literals(node.arg, not negated, acc, or_free)
    elif isinstance(node, And):
        if negated:
            or_free[0] = False
        for a in node.args:
            _nnf_literals(a, negated, acc, or_free)
    elif isinstance(node, Or):
        if not negated:
            or_free[0] = False
        for a in node.args:
            _nnf_literals(a, negated, acc, or_free)
    else:
        acc.append(node)
    return acc, or_free[0]


def _margin_rows(atoms):
    """(i, j-or-None) margin descriptors; margin of OutLE/GE is J[i], of
    DiffLE is J[i] - J[j]. Negation does not change the margin."""
    rows = []
    for a in atoms:
        if isinstance(a, (OutLE, OutGE)):
            rows.append((a.i, None))
        elif isinstance(a, DiffLE):
            rows.append((a.i, a.j))
        else:
            return None
    return rows


def _reducible_dims(J: IntervalJacobian, margin_rows, widths, precision):
    """Dims where every atom's margin derivative is sign-definite."""
    d = widths.shape[0]
    out = []
    for j in range(d):
        if widths[j] <= precision:
            continue
        ok = True
        for i, k in margin_rows:
            if k is None:
                lo, hi = J.lo[i, j], J.hi[i, j]
            else:
                lo = J.lo[i, j] - J.hi[k, j]
                hi = J.hi[i, j] - J.lo[k, j]
            if not (lo > 0.0 or hi < 0.0):
                ok = False
                break
        if ok:
            out.append(j)
    return out


# ---------------------------------------------------------------------------
# work-stealing scheduler


class _Pool:
    """Per-worker LIFO deques; idle workers steal from the left (shallow)
    end of the most loaded peer's deque.

    The first exception raised while processing a job sets `cancel`, so
    every worker stops at its next job boundary, and `run` re-raises it.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self.deques = [collections.deque() for _ in range(workers)]
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        self.outstanding = 0
        self.cancel = threading.Event()
        self.error = None

    def _take(self, wid: int):
        own = self.deques[wid]
        if own:
            return own.pop()
        victim = max(range(self.workers), key=lambda w: len(self.deques[w]))
        if self.deques[victim]:
            return self.deques[victim].popleft()
        return None

    def run(self, initial_jobs, process):
        with self.lock:
            for n, job in enumerate(initial_jobs):
                self.deques[n % self.workers].append(job)
                self.outstanding += 1

        def worker(wid):
            try:
                # bounds that overflow raise IntervalOverflowError; numpy's
                # warnings about them would only repeat that on stderr
                with np.errstate(over="ignore", invalid="ignore"):
                    while True:
                        with self.lock:
                            while True:
                                if self.cancel.is_set() or (self.outstanding == 0):
                                    return
                                job = self._take(wid)
                                if job is not None:
                                    break
                                self.cond.wait(timeout=0.05)
                        children = process(job, wid)
                        with self.lock:
                            if children:
                                self.deques[wid].extend(children)
                                self.outstanding += len(children) - 1
                            else:
                                self.outstanding -= 1
                            self.cond.notify_all()
            except BaseException as e:  # re-raised by run() below
                with self.lock:
                    if self.error is None:
                        self.error = e
                    self.cancel.set()
                    self.cond.notify_all()

        if self.workers == 1:
            worker(0)
        else:
            threads = [
                threading.Thread(target=worker, args=(w,), daemon=True)
                for w in range(self.workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        if self.error is not None:
            raise self.error


# ---------------------------------------------------------------------------
# the driver


class _Run:
    def __init__(self, net: Network, spec, cfg: Config, short_circuit: bool):
        self.net = net
        input_spec, constraint = spec
        if input_spec.dim != net.input_dim:
            raise ValueError(
                f"property has {input_spec.dim} input dims, network expects {net.input_dim}"
            )
        self.cfg = cfg
        self.short_circuit = short_circuit
        self.constraint = desugar(constraint, net.output_dim)
        self.check = SoundCheck(self.constraint, net.output_dim, cfg.policy)
        self.core, self.regions = internal_view(net, input_spec)
        self.split = split_weights(self.core) if cfg.mode == "symbolic" else None
        # leaves and counterexamples are reported in the spec's units
        self.convert = net.has_normalization and input_spec.units == "raw"
        self.max_depth = (
            cfg.max_depth
            if cfg.max_depth is not None
            else default_max_depth(self.regions, cfg.precision)
        )
        atoms, or_free = _nnf_literals(self.constraint)
        margins = _margin_rows(atoms) if or_free else None
        self.margin_rows = margins  # None disables monotonicity reduction
        self.lock = threading.Lock()
        self.cancel = threading.Event()
        self.cex = None
        self.unknown = False
        self.timed_out = False
        self.leaves = []
        self.stats = RunStats()
        self.t0 = time.monotonic()

    # -- coordinate conversion --------------------------------------------
    def _to_raw(self, box: Box) -> Box:
        if not self.convert:
            return box
        return Box.from_arrays(self.net.denormalize(box.lo), self.net.denormalize(box.hi))

    def _to_raw_point(self, x: np.ndarray) -> np.ndarray:
        return self.net.denormalize(x) if self.convert else x

    # -- sampling ----------------------------------------------------------
    def _samples(self, box: Box) -> np.ndarray:
        mid = box.midpoint()
        if self.cfg.sample_strategy == "midpoint":
            return mid[np.newaxis, :]
        d = len(box)
        lo, hi = box.lo, box.hi
        k = min(d, 10)
        pts = [mid]
        for combo in itertools.islice(itertools.product((0, 1), repeat=k), 1024):
            p = mid.copy()
            for j, side in enumerate(combo):
                p[j] = hi[j] if side else lo[j]
            pts.append(p)
        return np.array(pts)

    def _try_counterexample(self, box: Box) -> Optional[np.ndarray]:
        pts = self._samples(box)
        ys = eval_concrete_batch(self.core, pts)
        for p, y in zip(pts, ys):
            if not check_concrete(y, self.check):
                raw = self._to_raw_point(p)
                # re-check through the full network; normalization round
                # trips can shift the point by ULPs
                if not check_concrete(eval_concrete(self.net, raw), self.check):
                    return raw
        return None

    # -- bookkeeping -------------------------------------------------------
    def _leaf(self, job: Job, status: SubStatus, cex=None):
        with self.lock:
            self.stats.leaves += 1
            self.stats.depth_total += job.depth
            if status is SubStatus.UNKNOWN_SUB:
                self.unknown = True
            if status is SubStatus.INSECURE_SUB and cex is not None and self.cex is None:
                self.cex = cex
            self.leaves.append((self._to_raw(job.box), status, cex))
        if status is SubStatus.INSECURE_SUB and self.short_circuit:
            self.cancel.set()
        return []

    def _out_of_budget(self) -> bool:
        return time.monotonic() - self.t0 > self.cfg.timeout

    # -- per-job processing ------------------------------------------------
    def process(self, job: Job, wid: int):
        with self.lock:
            self.stats.nodes_explored += 1
            self.stats.max_depth = max(self.stats.max_depth, job.depth)
        if self._out_of_budget():
            self.timed_out = True
            return self._leaf(job, SubStatus.UNKNOWN_SUB)

        box = job.box
        if self.cfg.mode == "symbolic":
            fr = symbolic_forward(self.core, box, self.cfg.policy, self.split)
        else:
            fr = naive_forward(self.core, box, self.cfg.policy)

        if check_sound(fr, self.check, box) is TriState.HOLDS:
            return self._leaf(job, SubStatus.SECURE_SUB)

        cex = self._try_counterexample(box)
        if cex is not None:
            return self._leaf(job, SubStatus.INSECURE_SUB, cex)

        if job.depth >= self.max_depth:
            return self._leaf(job, SubStatus.UNKNOWN_SUB)

        widths = box.widths()
        splittable = widths > self.cfg.precision
        if not splittable.any():
            return self._leaf(job, SubStatus.UNKNOWN_SUB)

        J = None
        if self.cfg.mode == "symbolic":
            J = backward_gradient(self.core, fr.masks, self.cfg.policy, self.split)
            # monotonicity reduction: endpoint substitution. Disabled when
            # enumerating (endpoint boxes would break the partition) and
            # for constraints with disjunctions (unsound there).
            if (
                self.cfg.monotonicity
                and self.short_circuit
                and self.margin_rows is not None
            ):
                dims = _reducible_dims(J, self.margin_rows, widths, self.cfg.precision)
                dims = dims[:_MAX_REDUCED_DIMS]
                if dims:
                    children = []
                    for sides in itertools.product((False, True), repeat=len(dims)):
                        v = np.where(sides, box.hi[dims], box.lo[dims])
                        lo, hi = box.lo.copy(), box.hi.copy()
                        lo[dims] = hi[dims] = v
                        children.append(Job(Box.from_arrays(lo, hi), job.depth + len(dims)))
                    return children

        if J is not None:
            split = smear_split_choice(J, box, self.cfg.precision)
        else:
            masked = np.where(splittable, widths, -np.inf)
            split = int(np.argmax(masked))
        left, right = iv_bisect(box, split)
        return [Job(left, job.depth + 1), Job(right, job.depth + 1)]

    # -- entry points ------------------------------------------------------
    def execute(self):
        pool = _Pool(self.cfg.workers)
        pool.cancel = self.cancel
        jobs = [Job(r) for r in self.regions]
        pool.run(jobs, self.process)
        self.stats.wall_time = time.monotonic() - self.t0


def verify(net: Network, spec, cfg: Config = Config()) -> Verdict:
    """Prove the property over the whole input spec or find a violating
    point; Unknown when the budget runs out first."""
    run = _Run(net, spec, cfg, short_circuit=True)
    run.execute()
    if run.cex is not None:
        return Verdict(Status.INSECURE, np.asarray(run.cex), run.stats)
    if run.unknown or run.timed_out:
        return Verdict(Status.UNKNOWN, None, run.stats)
    return Verdict(Status.SECURE, None, run.stats)


def enumerate_regions(net: Network, spec, cfg: Config = Config()) -> PartitionReport:
    """Partition the input regions into proved-secure, insecure (with a
    recorded counterexample), and unresolved sub-boxes."""
    run = _Run(net, spec, cfg, short_circuit=False)
    run.execute()
    return PartitionReport(run.leaves, run.stats)


def write_report(path: str, payload) -> None:
    """Dump a verdict or partition report as JSON."""
    doc = payload.to_dict() if hasattr(payload, "to_dict") else payload
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
