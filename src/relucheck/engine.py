"""Verification driver: bisection tree, sampling, monotonicity reduction,
verdicts and sub-interval enumeration.

The search is depth-first. A cursor pops the job pushed last; a job that
is neither proved, refuted, nor out of budget pushes its children. Jobs
are evaluated in waves: when the cursor reaches a job that no wave has
evaluated, the next wave takes that job and up to WAVE - 1 unevaluated
jobs that follow it in depth-first order. It stacks their boxes into
(B, d) arrays and bounds, checks, samples and splits all of them at once.
Every box of a stack gets the bits it would get alone, so the tree, the
verdict, the node count and the order of the leaves do not depend on the
wave size. Results that a verify run never reaches because it stopped at
a counterexample are dropped, and are not counted as nodes.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .intervals import Box, IntervalOverflowError, RoundingPolicy, DEFAULT_POLICY, iv_bisect
from .network import (
    DimensionMismatchError,
    Network,
    eval_concrete,
    eval_concrete_batch,
    split_weights,
)
from .propagate import ReluMaskMatrix, naive_forward, symbolic_forward
from .gradients import IntervalJacobian, backward_gradient, smear_split_choice
from .properties import (
    And,
    DiffLE,
    InputSpec,
    Not,
    Or,
    OutGE,
    OutLE,
    SoundCheck,
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


@dataclass(eq=False, slots=True)
class Job:
    """A sub-box of an input region and its depth in the bisection tree.

    The wave that evaluates it sets `outcome`: its leaf status (with the
    counterexample of an insecure leaf), or the list of its child jobs.
    """

    box: Box
    depth: int = 0
    outcome: object = None
    cex: Optional[np.ndarray] = None


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
    # checked, but without effect: one thread evaluates the waves. Kept so
    # that callers that pass a worker count keep working.
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
    with np.errstate(over="ignore"):
        wmax = max((w for r in regions for w in r.widths()), default=0.0)
    if wmax <= precision:
        return 1
    ratio = wmax / precision
    if math.isinf(ratio):  # past the float range; halved widths are not
        half = max(float(np.max(r.hi / 2 - r.lo / 2)) for r in regions)
        bits = math.log2(half) + 1.0 - math.log2(precision)
    else:
        bits = math.log2(ratio)
    return max(1, math.ceil(bits) * d)


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


class _MarginRows:
    """The atoms' margins as index arrays: margin r's derivative is
    J[i_r] - J[k_r], or J[i_r] alone for an OutLE/OutGE atom."""

    def __init__(self, rows):
        self.i = np.array([i for i, _ in rows], dtype=np.intp)
        self.k = np.array([0 if k is None else k for _, k in rows], dtype=np.intp)
        self.paired = np.array([k is not None for _, k in rows], dtype=bool)[:, np.newaxis]

    def monotone_dims(self, J: IntervalJacobian, wide):
        """(B, d) bool: the dims in `wide` where every margin's derivative
        is sign-definite over the box."""
        lo = J.lo[..., self.i, :] - np.where(self.paired, J.hi[..., self.k, :], 0.0)
        hi = J.hi[..., self.i, :] - np.where(self.paired, J.lo[..., self.k, :], 0.0)
        return ((lo > 0.0) | (hi < 0.0)).all(axis=-2) & wide


# ---------------------------------------------------------------------------
# the driver

# the most boxes one wave evaluates together
WAVE = 256


class _Run:
    def __init__(self, net: Network, spec, cfg: Config, short_circuit: bool):
        self.net = net
        input_spec, constraint = spec
        if input_spec.dim != net.input_dim:
            raise DimensionMismatchError(
                f"property has {input_spec.dim} input dims, network expects {net.input_dim}"
            )
        self.cfg = cfg
        self.short_circuit = short_circuit
        self.constraint = desugar(constraint, net.output_dim)
        self.check = SoundCheck(self.constraint, net.output_dim, cfg.policy)
        self.core, self.regions = internal_view(net, input_spec)
        self.split = split_weights(self.core)
        # leaves and counterexamples are reported in the spec's units
        self.convert = net.has_normalization and input_spec.units == "raw"
        self.max_depth = (
            cfg.max_depth
            if cfg.max_depth is not None
            else default_max_depth(self.regions, cfg.precision)
        )
        atoms, or_free = _nnf_literals(self.constraint)
        margins = _margin_rows(atoms) if or_free else None
        # None disables monotonicity reduction: endpoint boxes would break
        # an enumerated partition, and they are unsound for disjunctions
        self.margins = (
            _MarginRows(margins)
            if margins is not None and cfg.monotonicity and short_circuit and cfg.mode == "symbolic"
            else None
        )
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
        """(B, S, d) sample points of a stack: each box's midpoint, then
        with the corners strategy its corners over the first ten dims."""
        mid = box.midpoint()[:, np.newaxis, :]
        if self.cfg.sample_strategy == "midpoint":
            return mid
        d = len(box)
        k = min(d, 10)
        sides = np.array(list(itertools.islice(itertools.product((0, 1), repeat=k), 1024)), dtype=bool)
        corners = np.repeat(mid, len(sides), axis=1)
        lo, hi = box.lo[:, np.newaxis, :k], box.hi[:, np.newaxis, :k]
        corners[..., :k] = np.where(sides, hi, lo)
        return np.concatenate((mid, corners), axis=1)

    def _counterexamples(self, box: Box) -> list:
        """Per box of a stack, its first sample point that violates the
        constraint, in the spec's units, or None."""
        pts = self._samples(box)
        ok = check_concrete(eval_concrete_batch(self.core, pts.reshape(-1, len(box))), self.check)
        found = [None] * len(pts)
        for b, s in np.argwhere(~ok.reshape(pts.shape[:2])).tolist():
            if found[b] is None:
                raw = self._to_raw_point(pts[b, s])
                # a point converted to raw units is re-checked through the
                # full network, because the round trip can shift it by ULPs;
                # any other point is already in the coordinates of the core
                if not self.convert or not check_concrete(eval_concrete(self.net, raw), self.check):
                    found[b] = raw
        return found

    # -- bookkeeping -------------------------------------------------------
    def _leaf(self, job: Job, status: SubStatus, cex=None):
        self.stats.leaves += 1
        self.stats.depth_total += job.depth
        if status is SubStatus.UNKNOWN_SUB:
            self.unknown = True
        if status is SubStatus.INSECURE_SUB and cex is not None and self.cex is None:
            self.cex = cex
        if not self.short_circuit:
            self.leaves.append((self._to_raw(job.box), status, cex))

    def _out_of_budget(self) -> bool:
        return time.monotonic() - self.t0 > self.cfg.timeout

    # -- one wave ----------------------------------------------------------
    def _frontier(self, job: Job, stack: list) -> list:
        """`job` and the unevaluated jobs after it in depth-first order, at
        most WAVE in all.

        The order is the one the cursor will take: the stack from its top,
        where an evaluated job stands for its children. An evaluated
        insecure leaf ends a verify run, so nothing after it is taken.
        """
        wave = [job]
        below = len(stack)
        expanded = []
        while len(wave) < WAVE:
            if expanded:
                nxt = expanded.pop()
            elif below:
                below -= 1
                nxt = stack[below]
            else:
                break
            outcome = nxt.outcome
            if outcome is None:
                wave.append(nxt)
            elif type(outcome) is list:
                expanded.extend(outcome)
            elif outcome is SubStatus.INSECURE_SUB and self.short_circuit:
                break
        return wave

    def process(self, jobs: list) -> None:
        """Evaluate a wave of jobs as one stack of boxes: bound, check,
        sample, and choose each box's split. Sets each job's outcome: its
        leaf status (and counterexample), or its list of child jobs."""
        cfg = self.cfg
        box = Box.stack([job.box for job in jobs])
        try:
            if cfg.mode == "symbolic":
                fr = symbolic_forward(self.core, box, cfg.policy, self.split)
            else:
                fr = naive_forward(self.core, box, cfg.policy, self.split)
        except IntervalOverflowError:
            if len(jobs) == 1:
                raise
            # the overflow may be in a box the search never reaches, as in a
            # region after a counterexample: evaluate the one it needs now
            return self.process(jobs[:1])

        holds = check_sound(fr, self.check, box)
        for job in itertools.compress(jobs, holds.tolist()):
            job.outcome = SubStatus.SECURE_SUB
        idx = np.flatnonzero(~holds)
        if not len(idx):
            return
        if len(idx) < len(jobs):
            box = box.take(idx)
        widths = box.widths()
        can_split = (widths > cfg.precision).any(axis=1).tolist()
        keep = []
        for b, (i, cex) in enumerate(zip(idx.tolist(), self._counterexamples(box))):
            job = jobs[i]
            if cex is not None:
                job.outcome, job.cex = SubStatus.INSECURE_SUB, cex
            elif job.depth >= self.max_depth or not can_split[b]:
                job.outcome = SubStatus.UNKNOWN_SUB
            else:
                keep.append(b)
        if not keep:
            return
        if len(keep) < len(idx):
            box, widths, idx = box.take(keep), widths[keep], idx[keep]
        jobs = [jobs[i] for i in idx.tolist()]

        if cfg.mode == "symbolic":
            masks = ReluMaskMatrix(m[idx] for m in fr.masks)
            J = backward_gradient(self.core, masks, cfg.policy, self.split)
            dims = smear_split_choice(J, box, cfg.precision)
            if self.margins is not None:
                # monotonicity reduction: a box whose margins are monotone
                # in some dims is replaced by its endpoint boxes there
                mono = self.margins.monotone_dims(J, widths > cfg.precision)
                reduced = mono.any(axis=1)
                for b in np.flatnonzero(reduced).tolist():
                    pinned = np.flatnonzero(mono[b])[:_MAX_REDUCED_DIMS].tolist()
                    jobs[b].outcome = _endpoint_children(jobs[b], pinned)
                if reduced.any():
                    keep = np.flatnonzero(~reduced)
                    box, dims = box.take(keep), dims[keep]
                    jobs = [jobs[b] for b in keep.tolist()]
        else:
            dims = np.argmax(np.where(widths > cfg.precision, widths, -np.inf), axis=1)
        left, right = iv_bisect(box, dims)
        for job, l, r in zip(jobs, left.unstack(), right.unstack()):
            job.outcome = [Job(l, job.depth + 1), Job(r, job.depth + 1)]

    # -- entry points ------------------------------------------------------
    def execute(self):
        """Consume the job tree depth-first, last pushed first, evaluating
        the frontier in waves whenever the cursor reaches a job that no
        wave has evaluated yet."""
        stack = [Job(r) for r in self.regions]
        stats = self.stats
        # bounds that overflow raise IntervalOverflowError; numpy's
        # warnings about them would only repeat that on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            while stack:
                job = stack.pop()
                stats.nodes_explored += 1
                stats.max_depth = max(stats.max_depth, job.depth)
                if self._out_of_budget():
                    self.timed_out = True
                    self._leaf(job, SubStatus.UNKNOWN_SUB)
                    continue
                if job.outcome is None:
                    self.process(self._frontier(job, stack))
                if type(job.outcome) is list:
                    stack.extend(job.outcome)
                    continue
                self._leaf(job, job.outcome, job.cex)
                if job.outcome is SubStatus.INSECURE_SUB and self.short_circuit:
                    break
        stats.wall_time = time.monotonic() - self.t0


def _endpoint_children(job: Job, dims: list) -> list:
    """The 2^k boxes that pin each of the k dims to one of its ends."""
    box, children = job.box, []
    for sides in itertools.product((False, True), repeat=len(dims)):
        v = np.where(sides, box.hi[dims], box.lo[dims])
        lo, hi = box.lo.copy(), box.hi.copy()
        lo[dims] = hi[dims] = v
        children.append(Job(Box.from_arrays(lo, hi), job.depth + len(dims)))
    return children


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
