"""Verification driver: bisection tree, sampling, monotonicity reduction,
verdicts and sub-interval enumeration.

The search tree is kept in arrays: a job is a row of the float64 block
`ends`, its box's lower ends over its upper ends, and its depth, its
outcome and the counterexample of an insecure leaf are kept by row. The
search is depth-first. A cursor pops the row pushed last; a row that is
neither proved, refuted, nor out of budget pushes its children. Rows are
evaluated in waves. The rows that no wave has evaluated are kept on a
stack of their own in depth-first order, the next one on top, so the row
the cursor reaches unevaluated is always the top of that stack, and a
wave takes up to WAVE rows from the top. One rule, `smear_split_choice`,
decides whether and where a box splits: a box's own split, from its
interval Jacobian over its widths, or -1 (an Unknown leaf) where no dim
is wider than the precision; and the plan a bisection gives each child
of a box, from the box's Jacobian over the child's own widths. Naive
mode has no Jacobian, so there a child's plan is its own split; in
symbolic mode it most often is. A wave evaluates each of its rows with
the two children its plan gives, in the order the cursor reaches them,
so it covers two levels of the tree and holds up to 3 * WAVE boxes. A
row that splits on its plan adopts those children; the others are
freed, with the rows they took and their counterexamples. One index into the block stacks the boxes into a
(B, 2, d) array, and the wave samples each box's midpoint first: a
violating midpoint makes its box an insecure leaf without bounding it, and a
verify wave stops at the first such box, since the search stops there.
The other boxes are then bounded and checked, the undecided ones sampled
at their corners (with that strategy) and split, all at once; their
children take rows together. A row the cursor has consumed is reused, so
rows are never moved or renumbered. Every box of a stack gets the bits
it would get alone, so the tree, the verdict, the node count and the
order of the leaves depend neither on the wave size nor on the plans.
Results that a verify run never reaches because it stopped at a
counterexample are dropped, and are not counted as nodes.

Boxes, sample points, counterexamples and leaves are in the property's
units; the analysis passes apply the network's input normalization. The
split rule, the monotonicity reduction and the default depth budget read
widths in the units the first layer reads (`input_widths`), so that
"widest" does not rank feet against radians.

A verify run also attacks each undecided root box (an input region)
before splitting it, whatever its constraint. From the midpoint and a few
seeded uniform points, projected signed-gradient steps (PGD, Madry et
al., arXiv 1706.06083) lower the constraint's margin, the And/Or tree's
least or greatest literal margin: each point steps down the margin of its
active literal, the one that sets its tree margin. A point that violates
the constraint makes the root an insecure leaf, so the run ends at its
first node. Sampling alone refutes a box only where its midpoint or a
corner violates, so without the attack such a run bisects until a sample
hits the violation or the depth budget runs out. Each root is attacked on
its own, from points drawn by a generator seeded with its region's index,
so the attack keeps the search independent of the wave size. Enumerate
runs do not attack, since an attacked root would not be partitioned.
Only the monotonicity reduction needs an Or-free constraint.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .intervals import Box, IntervalOverflowError, iv_bisect, midpoint
# eval_concrete is not called here; bench/spans.py traces it as
# engine.eval_concrete, and test_bench_contract.py pins that name
from .network import DimensionMismatchError, Network, eval_concrete, eval_concrete_batch
from .propagate import ReluMaskMatrix, naive_forward, symbolic_forward
from .gradients import backward_gradient, margin_gradients, smear_split_choice
from .properties import InputSpec, check_concrete, check_sound, compile_check

__all__ = [
    "Status",
    "SubStatus",
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


@dataclass
class RunStats:
    nodes_explored: int = 0
    max_depth: int = 0
    depth_total: int = 0
    leaves: int = 0
    wall_time: float = 0.0
    # insecure leaves whose counterexample the root attack found
    attack_hits: int = 0
    # the waves evaluated; a wave that overflows and falls back to its
    # first row counts once
    waves: int = 0
    # the boxes the waves bounded, planned children included
    boxes_bounded: int = 0

    @property
    def avg_depth(self) -> float:
        return self.depth_total / self.leaves if self.leaves else 0.0

    def to_dict(self):
        return {
            "nodes_explored": self.nodes_explored,
            "max_depth": self.max_depth,
            "avg_depth": self.avg_depth,
            "wall_time": self.wall_time,
            "attack_hits": self.attack_hits,
            "waves": self.waves,
            "boxes_bounded": self.boxes_bounded,
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

    def to_dict(self):
        return {
            "leaves": [
                {
                    "box": box.ends.T.tolist(),
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

    def __post_init__(self):
        if not 0 < self.precision < math.inf:
            raise ValueError("precision must be positive and finite")
        if math.isnan(self.timeout):
            raise ValueError("timeout must be a number of seconds, not NaN")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mode not in ("symbolic", "naive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.sample_strategy not in ("midpoint", "corners"):
            raise ValueError(f"unknown sample strategy {self.sample_strategy!r}")


def internal_view(net: Network, input_spec: InputSpec):
    """(core, regions): a copy of `net` that the run analyses, and the
    spec's regions as written, as one stack of boxes. The core keeps the
    input normalization for a raw-unit spec, and drops it for a spec in
    normalized units, so it reads the regions in the spec's own units. It
    holds `net.layers` itself, which `net` checked when it was built, so it
    is made without those checks. It is new on every call, so the
    `split_weights` it computes are freed with the run, not kept on `net`.
    It shares `net.error_bound`, which depends on the layers alone and
    holds d + 1 floats per unit: computed at the first run on `net`, not
    at every run.

    Raises DimensionMismatchError when the spec's input dimension is not
    the network's, and ValueError when a region's ends overflow when
    normalized."""
    ends = np.array([r.ends for r in input_spec.regions])
    if ends.shape[-1] != net.layers[0].W.shape[1]:
        raise DimensionMismatchError(
            f"property has {ends.shape[-1]} input dims, network expects {net.input_dim}"
        )
    mean = scale = None
    if net.norm_mean is not None and input_spec.units == "raw":
        # normalizing keeps lo <= hi, but it may overflow
        if np.count_nonzero(np.isfinite(net.normalize(ends))) < ends.size:
            raise ValueError("a region's bounds overflow when normalized")
        mean, scale = net.norm_mean, net.norm_range
    core = object.__new__(Network)
    vars(core).update(layers=net.layers, norm_mean=mean, norm_range=scale, error_bound=net.error_bound)
    return core, Box.stack(ends)


def input_widths(box: Box, scale) -> np.ndarray:
    """The widths of a box or a stack in the units the first layer reads:
    divided by `scale`, the normalization ranges of a run whose core has
    them, or 1.0."""
    return box.widths() / scale


def default_max_depth(regions: Box, precision: float, scale=1.0) -> int:
    """ceil(log2(max initial width / precision)) * d, at least 1, over a
    box or a stack of boxes, its widths read by `input_widths`."""
    d = len(regions)
    with np.errstate(over="ignore"):
        wmax = float(input_widths(regions, scale).max())
    if wmax <= precision:
        return 1
    ratio = wmax / precision
    if math.isinf(ratio):  # past the float range; halved widths are not
        half = float(input_widths(Box.stack(regions.ends / 2), scale).max())
        bits = math.log2(half) + 1.0 - math.log2(precision)
    else:
        bits = math.log2(ratio)
    return max(1, math.ceil(bits) * d)


# the most dims one monotonicity reduction pins, so 2^3 endpoint boxes
_MAX_REDUCED_DIMS = 3
# the root attack: starts per literal (the midpoint, which they share, and
# uniform points), signed-gradient steps per start, and the size of each
# step in quarters of the box's widths
_ATTACK_STARTS = 4
_ATTACK_STEPS = 8
_ATTACK_STEP_SIZES = 2.0 ** (-np.arange(_ATTACK_STEPS)[:, np.newaxis] / 4)

# ---------------------------------------------------------------------------
# the driver


# the most boxes one wave evaluates together
WAVE = 256
# the fewest rows the blocks grow to, so that a short run grows them once
_MIN_ROWS = 256


class _Run:
    """One search. A row's outcome is None until a wave evaluates it, then
    its leaf status or the list of its child rows; its plan is the dim a
    wave evaluates its children on ahead, or -1. `pending` holds the rows
    whose outcome is None and that the cursor will reach, in the order it
    will reach them, the next one last. A row is a slot that the
    run reuses (`free`) once the cursor has consumed it, so its memory
    follows the pending rows and their evaluated descendants. Rows are
    never moved or renumbered. An enumerate run keeps its leaf rows, since
    its leaves are read from them at the end. The rows hold boxes in the
    spec's units, which the passes and the core's evaluation normalize
    where the core has a normalization; `scale` reads their widths in the
    units the first layer reads."""

    def __init__(self, net: Network, spec, cfg: Config, short_circuit: bool):
        input_spec, constraint = spec
        self.core, regions = internal_view(net, input_spec)
        self.cfg = cfg
        self.short_circuit = short_circuit
        self.check = compile_check(constraint, net.layers[-1].W.shape[0])
        self.scale = 1.0 if self.core.norm_range is None else self.core.norm_range
        self.max_depth = (
            cfg.max_depth
            if cfg.max_depth is not None
            else default_max_depth(regions, cfg.precision, self.scale)
        )
        # endpoint boxes would break an enumerated partition, and they are
        # unsound for disjunctions
        self.reduce = self.check.or_free and short_circuit and cfg.mode == "symbolic"
        # the regions are the first rows
        self.ends = regions.ends.copy()
        self.depth = [0] * len(self.ends)
        self.region = list(range(len(self.ends)))  # the index of a row's region
        self.outcome = [None] * len(self.ends)
        self.plan = [-1] * len(self.ends)  # the split dim planned for a row, -1 for none
        self.free = []  # the rows to reuse, the last freed first
        self.pending = list(range(len(self.ends)))
        self.witness = {}  # row -> counterexample of an evaluated insecure row
        self.attacked = set()  # the rows whose counterexample the attack found
        self.cex = None
        self.unknown = False
        self.leaves = []  # (row, status, cex), in the order the cursor reaches them
        self.stats = RunStats()
        self.t0 = time.monotonic()

    @functools.cached_property
    def sign_margin(self) -> np.ndarray:
        """The (k, d) bound on the float error of the literals' Jacobian
        rows, |A| @ the core's `ErrorBound.jacobian`: the monotonicity
        reduction trusts a sign only beyond it."""
        return self.check.abs @ self.core.error_bound.jacobian

    # -- the rows ------------------------------------------------------------
    def _take_rows(self, parents: list, sizes: list, steps: list) -> tuple:
        """Take sizes[k] free rows for the children of parents[k], each
        steps[k] levels deeper than it, in its region, and without an
        outcome or a plan. When too few are free, the blocks grow. Returns
        the new rows, each parent's in turn, and the list of each parent's
        children; the caller fills in their `ends`."""
        free, n = self.free, sum(sizes)
        depth, region, outcome, plan = self.depth, self.region, self.outcome, self.plan
        if len(free) < n:
            size = len(outcome)
            grown = max(2 * size, size + n - len(free), _MIN_ROWS)
            self.ends = np.concatenate((self.ends, np.empty((grown - size,) + self.ends.shape[1:])))
            for rows, fill in ((depth, 0), (region, 0), (outcome, None), (plan, -1)):
                rows.extend([fill] * (grown - size))
            free.extend(range(size, grown))
        cut = len(free) - n
        new = free[cut:]
        del free[cut:]
        groups, start = [], 0
        for r, k, s in zip(parents, sizes, steps):
            d, g = depth[r] + s, region[r]
            children = new[start : start + k]
            groups.append(children)
            for c in children:
                depth[c] = d
                region[c] = g
                outcome[c] = None
                plan[c] = -1
            start += k
        return new, groups

    def _add_children(self, rows: list, sizes: list, steps: list) -> list:
        """Take the children of `rows` with `_take_rows`, and make each
        row's outcome the list of its children. Returns all the new rows."""
        new, groups = self._take_rows(rows, sizes, steps)
        for r, children in zip(rows, groups):
            self.outcome[r] = children
        return new

    def partition(self) -> list:
        """The leaves as (Box, status, cex), as the rows hold them."""
        boxes = Box.stack(self.ends[[row for row, _, _ in self.leaves]]).unstack()
        return [(box, status, cex) for box, (_, status, cex) in zip(boxes, self.leaves)]

    # -- sampling ----------------------------------------------------------
    def _corners(self, rows: list, box: Box) -> dict:
        """Counterexamples at each box's corners over its first ten dims,
        with the other dims at the midpoint, as `_counterexamples` gives
        them."""
        mid = box.midpoint()[:, np.newaxis, :]
        k = min(len(box), 10)
        sides = np.array(list(itertools.product((0, 1), repeat=k)), dtype=bool)
        corners = np.repeat(mid, len(sides), axis=1)
        lo, hi = box.lo[:, np.newaxis, :k], box.hi[:, np.newaxis, :k]
        corners[..., :k] = np.where(sides, hi, lo)
        return self._counterexamples(corners)

    def _counterexamples(self, pts: np.ndarray) -> dict:
        """The first of each box's (B, S, d) sample points that violates
        the constraint, by box index in rising order; boxes without one are
        left out. The points are evaluated once, through the core, so a
        point reported is always the point whose outputs were checked.
        Outputs that are not all finite overflowed, and certify nothing
        about the real ones: their points are not reported."""
        y = eval_concrete_batch(self.core, pts.reshape(-1, pts.shape[-1]))
        bad = ~check_concrete(y, self.check)
        if not np.count_nonzero(bad):
            return {}
        finite = np.isfinite(y)
        if np.count_nonzero(finite) < finite.size:
            bad &= finite.all(axis=-1)
        bad = bad.reshape(pts.shape[:2])
        # each box's first violating sample, and 0 where none violates
        first = bad.argmax(axis=1).tolist()
        at_0 = bad[:, 0].tolist()
        found = {}  # a loop: before Python 3.12 a comprehension is a call
        for b, s in enumerate(first):
            if s or at_0[b]:
                found[b] = pts[b, s]
        return found

    def _attack(self, rows: list, box: Box) -> dict:
        """The first root box of a stack in which gradient steps find a
        counterexample, as {box index: counterexample},
        or {}. A verify run stops at that root, so the roots after it are
        not attacked. Each root is attacked on its own, so its result does
        not depend on the boxes that share its stack."""
        for b, row in enumerate(rows):
            if self.depth[row] == 0:
                cex = self._attack_root(row, box.lo[b], box.hi[b])
                if cex is not None:
                    self.attacked.add(row)
                    return {b: cex}
        return {}

    def _attack_root(self, row: int, lo: np.ndarray, hi: np.ndarray):
        """A counterexample in [lo, hi], the box of the root `row`, found
        by signed-gradient descent on the constraint's margin, or None.

        The starts are the box's midpoint, then _ATTACK_STARTS - 1 uniform
        points per literal, drawn by a generator seeded with the index of
        the row's region. Each start takes _ATTACK_STEPS steps,
        the t-th of 0.25 * width * 2^(-t/4) in each dim, clipped to the
        box, each down the margin of the literal that is active at the
        point (`SoundCheck.active`); with one literal, that is its margin
        throughout. The starts and then the points after every step whose
        margin is <= 0 go to `_counterexamples`, and after the last step
        all points do."""
        k, d = len(self.check.t), len(lo)
        if not k:  # no literal, no start
            return None
        rng = random.Random(self.region[row])
        draws = [rng.random() for _ in range(k * (_ATTACK_STARTS - 1) * d)]
        u = np.reshape(draws, (-1, d))
        x = np.empty((1 + len(u), d))
        x[0] = midpoint(lo, hi)
        # no term overflows, even where hi - lo would
        x[1:] = np.minimum(np.maximum(lo * (1.0 - u) + hi * u, lo), hi)
        # a quarter of the widths, taken so that it does not overflow
        steps = _ATTACK_STEP_SIZES * (0.5 * (hi / 2.0 - lo / 2.0))
        for step in range(_ATTACK_STEPS):
            r, g = margin_gradients(self.core, x, self.check)
            hit = r <= 0.0
            if hit.any():
                found = self._counterexamples(x[hit][np.newaxis])
                if found:
                    return found[0]
            x = np.minimum(np.maximum(x + steps[step] * np.sign(g), lo), hi)
        # no margins after the last step: `_counterexamples` evaluates the
        # points anyway, and a point that violates has a margin <= 0
        return self._counterexamples(x[np.newaxis]).get(0)

    def _refute(self, rows: list, found: dict) -> list:
        """Make each row that has a counterexample an insecure leaf, and
        return the indices of the others. A verify run stops at its first
        insecure leaf, so none of the rows after it is returned."""
        for i, cex in found.items():
            self.outcome[rows[i]] = SubStatus.INSECURE_SUB
            self.witness[rows[i]] = cex
            if self.short_circuit:
                return list(range(i))
        return [i for i in range(len(rows)) if i not in found]

    # -- bookkeeping -------------------------------------------------------
    def _leaf(self, row: int, status: SubStatus, cex=None):
        self.stats.leaves += 1
        self.stats.depth_total += self.depth[row]
        if status is SubStatus.UNKNOWN_SUB:
            self.unknown = True
        if status is SubStatus.INSECURE_SUB and cex is not None and self.cex is None:
            self.cex = cex
            self.stats.attack_hits += row in self.attacked
        if self.short_circuit:
            self.free.append(row)
        else:
            self.leaves.append((row, status, cex))

    # -- one wave ----------------------------------------------------------
    def process(self, rows: list) -> None:
        """Evaluate a wave of rows as one stack of boxes, each row with the
        two children its plan gives, in the order the cursor reaches them:
        the row, its right child, its left child. The planned children take
        their rows from `_take_rows`. A row whose own split is its plan
        adopts those children, which are then evaluated already; the other
        planned children are freed, with the rows they took. If the stack
        overflows, the wave's first row is evaluated alone, without its
        planned children."""
        self.stats.waves += 1
        kids = {}  # row -> its planned children, left then right
        stack = rows
        plan = self.plan
        parents = []  # a loop: before Python 3.12 a comprehension is a call
        for r in rows:
            if plan[r] >= 0:
                parents.append(r)
        if parents:
            new, pairs = self._take_rows(parents, [2] * len(parents), [1] * len(parents))
            self._bisect(new, Box.stack(self.ends[parents]), [plan[r] for r in parents])
            kids = dict(zip(parents, pairs))
            stack = []
            for r in rows:
                stack.append(r)
                if r in kids:
                    stack.extend(reversed(kids[r]))
        try:
            self._evaluate(stack, kids)
        except IntervalOverflowError:
            if len(stack) == 1:
                raise
            # the overflow may be in a box the search never reaches, as in a
            # region after a counterexample: evaluate the one it needs now
            self._evaluate(rows[:1], {})
        outcome, free = self.outcome, self.free
        for r, pair in kids.items():
            if outcome[r] is not pair:
                for c in pair:
                    if type(outcome[c]) is list:
                        free += outcome[c]
                    self.witness.pop(c, None)
                    free.append(c)

    def _evaluate(self, rows: list, kids: dict) -> None:
        """Evaluate a stack of rows. Sample each box's midpoint first: a
        violating one makes its box an insecure leaf. Then bound and check
        the other boxes, sample the corners of the undecided ones, attack
        the undecided roots, reduce the monotone ones, and split the rest
        on the dim `smear_split_choice` picks; a box at the depth budget,
        or where it picks none (-1), is an Unknown leaf. Sets each row's
        outcome: its leaf status (and counterexample), or the list of its
        children: the planned ones of `kids` where its split is its plan,
        else new ones, taken as one batch per wave and kind of split, each
        new child of a bisection with a plan. Rows after a verify run's
        first insecure leaf keep no outcome: the search never reaches
        them."""
        cfg = self.cfg
        outcome = self.outcome
        ends = self.ends.take(rows, axis=0)
        mid = midpoint(ends[:, 0], ends[:, 1])
        rest = self._refute(rows, self._counterexamples(mid[:, np.newaxis]))
        if not rest:
            return
        if len(rest) < len(rows):
            ends, rows = ends[rest], [rows[i] for i in rest]
        box = Box.stack(ends)
        self.stats.boxes_bounded += len(rows)
        if cfg.mode == "symbolic":
            fr = symbolic_forward(self.core, box)
        else:
            fr = naive_forward(self.core, box)
        # a symbolic check bounds the output rows it reads, so it may
        # overflow too
        holds = check_sound(fr, self.check)

        for r in itertools.compress(rows, holds.tolist()):
            outcome[r] = SubStatus.SECURE_SUB
        idx = np.flatnonzero(~holds)
        if not len(idx):
            return
        if len(idx) < len(rows):
            box = box.take(idx)
        samplers = [self._corners] if cfg.sample_strategy == "corners" else []
        if self.short_circuit:
            samplers.append(self._attack)
        for sample in samplers:
            undecided = [rows[i] for i in idx.tolist()]
            rest = self._refute(undecided, sample(undecided, box))
            if len(rest) < len(idx):
                box, idx = box.take(rest), idx[rest]
        keep = []
        for b, i in enumerate(idx.tolist()):
            if self.depth[rows[i]] >= self.max_depth:
                outcome[rows[i]] = SubStatus.UNKNOWN_SUB
            else:
                keep.append(b)
        if not keep:
            return
        if len(keep) < len(idx):
            box, idx = box.take(keep), idx[keep]
        rows = [rows[i] for i in idx.tolist()]
        widths = input_widths(box, self.scale)

        J = None
        if cfg.mode == "symbolic":
            masks = ReluMaskMatrix(m[idx] for m in fr.masks)
            J = backward_gradient(self.core, masks)
            if J.ndim == 3:  # a net with no hidden layer: one J for all boxes
                J = np.broadcast_to(J, (len(rows),) + J.shape)
            if self.reduce:
                # monotonicity reduction: a box whose margins are monotone
                # in some dims is replaced by its endpoint boxes there
                mono = self.check.monotone_dims(J, widths > cfg.precision, self.sign_margin)
                reduced = mono.any(axis=1)
                if reduced.any():
                    red, keep = np.flatnonzero(reduced), np.flatnonzero(~reduced)
                    self._add_endpoints([rows[b] for b in red.tolist()], box.take(red), mono[red])
                    box, widths, J = box.take(keep), widths[keep], J[keep]
                    rows = [rows[b] for b in keep.tolist()]
        dims = smear_split_choice(J, widths, cfg.precision)
        plan, split = self.plan, dims.tolist()
        keep = []
        for b, r in enumerate(rows):
            if split[b] < 0:
                outcome[r] = SubStatus.UNKNOWN_SUB
            elif r in kids and plan[r] == split[b]:
                outcome[r] = kids[r]
            else:
                keep.append(b)
        if not keep:
            return
        if len(keep) < len(rows):
            box, dims = box.take(keep), dims[keep]
            J = J if J is None else J[keep]
            rows = [rows[b] for b in keep]
        new = self._add_children(rows, [2] * len(rows), [1] * len(rows))
        self._bisect(new, box, dims)
        self._plan_children(new, J)

    def _bisect(self, new: list, box: Box, dims) -> None:
        """Write the halves of each box of the stack, split on its dim of
        `dims`, to the rows `new`: the left then the right half of each, so
        the right one is popped first."""
        left, right = iv_bisect(box, dims)
        at = np.array(new, dtype=np.intp)
        self.ends[at[0::2]] = left.ends
        self.ends[at[1::2]] = right.ends

    def _plan_children(self, new: list, J) -> None:
        """Give each child of the rows `new`, the left then the right half
        of each box k of a bisected stack, the plan `smear_split_choice`
        gives from the box's Jacobian J[k] (J is None in naive mode) over
        the child's own widths: -1 where no dim is wider than the
        precision. Children at the depth budget get no plan."""
        at_max = [self.depth[c] >= self.max_depth for c in new[::2]]
        if all(at_max):
            return
        widths = input_widths(Box.stack(self.ends[new]), self.scale)
        widths = widths.reshape(-1, 2, widths.shape[-1])
        J = J if J is None else J[:, np.newaxis]
        plan = self.plan
        for k, dims in enumerate(smear_split_choice(J, widths, self.cfg.precision).tolist()):
            if not at_max[k]:
                plan[new[2 * k]], plan[new[2 * k + 1]] = dims

    def _add_endpoints(self, rows: list, box: Box, mono: np.ndarray) -> None:
        """Make the children of each row the 2^k boxes that pin the first k
        (at most _MAX_REDUCED_DIMS) of its box's monotone dims, a row of
        `mono`, to one of their ends."""
        blocks, sizes, steps = [], [], []
        for b, dims in enumerate(mono.tolist()):
            pinned = np.flatnonzero(dims)[:_MAX_REDUCED_DIMS]
            sides = np.array(list(itertools.product((False, True), repeat=len(pinned))))
            ends = np.repeat(box.ends[b : b + 1], len(sides), axis=0)
            ends[..., pinned] = np.where(sides, box.hi[b, pinned], box.lo[b, pinned])[:, np.newaxis, :]
            blocks.append(ends)
            sizes.append(len(sides))
            steps.append(len(pinned))
        new = self._add_children(rows, sizes, steps)
        self.ends[new] = np.concatenate(blocks)

    # -- entry points ------------------------------------------------------
    def _push(self, row: int) -> None:
        """Put a row of a wave back on `pending` if the wave left it
        unevaluated, else push the unevaluated rows under it, the children
        of a split row, or of an adopted child that split, in depth-first
        order. An insecure leaf of a verify run clears `pending` instead,
        since the run reaches no row after it."""
        o = self.outcome[row]
        if o is None:
            self.pending.append(row)
        elif type(o) is list:
            for c in o:
                self._push(c)
        elif o is SubStatus.INSECURE_SUB and self.short_circuit:
            self.pending.clear()

    @np.errstate(over="ignore", invalid="ignore")
    def execute(self):
        """Consume the rows depth-first, last pushed first. A row that no
        wave has evaluated is then the top of `pending`, and a wave
        evaluates it and the rows below it, WAVE in all, with their planned
        children. The rows the wave leaves unevaluated, and the unevaluated
        children of its split rows and of the children they adopted, go
        back on `pending` in depth-first order (`_push`); a verify run's
        first insecure leaf, a wave row or an adopted child, clears it,
        since the run reaches no row after that leaf. A
        consumed row is freed for reuse: a split row once its children
        are pushed, a leaf row in a verify run. The clock is read where a
        wave would start: past the deadline, a row that no wave has
        evaluated is an Unknown leaf, and a row a wave has decided keeps
        its outcome. Bounds that overflow raise IntervalOverflowError, so
        numpy's warnings about them, which would only repeat that on
        stderr, are off."""
        stack = list(range(len(self.depth)))  # the regions, the only rows yet
        stats = self.stats
        depth, outcomes, free, pending = self.depth, self.outcome, self.free, self.pending
        t0, timeout = self.t0, self.cfg.timeout
        while stack:
            row = stack.pop()
            stats.nodes_explored += 1
            if depth[row] > stats.max_depth:
                stats.max_depth = depth[row]
            if outcomes[row] is None:
                if time.monotonic() - t0 > timeout:
                    self._leaf(row, SubStatus.UNKNOWN_SUB)
                    continue
                wave = pending[: -WAVE - 1 : -1]  # the top WAVE rows, top first
                del pending[-WAVE:]
                self.process(wave)
                # from the wave's last row back, so that its first row's
                # children end on top
                for r in reversed(wave):
                    self._push(r)
            outcome = outcomes[row]
            if type(outcome) is list:
                stack.extend(outcome)
                free.append(row)
                continue
            self._leaf(row, outcome, self.witness.pop(row, None))
            if outcome is SubStatus.INSECURE_SUB and self.short_circuit:
                break
        stats.wall_time = time.monotonic() - t0


def verify(net: Network, spec, cfg: Config = Config()) -> Verdict:
    """Prove the property over the whole input spec or find a violating
    point; Unknown when the budget runs out first."""
    run = _Run(net, spec, cfg, short_circuit=True)
    run.execute()
    if run.cex is not None:
        return Verdict(Status.INSECURE, run.cex, run.stats)
    if run.unknown:
        return Verdict(Status.UNKNOWN, None, run.stats)
    return Verdict(Status.SECURE, None, run.stats)


def enumerate_regions(net: Network, spec, cfg: Config = Config()) -> PartitionReport:
    """Partition the input regions into proved-secure, insecure (with a
    recorded counterexample), and unresolved sub-boxes."""
    run = _Run(net, spec, cfg, short_circuit=False)
    run.execute()
    return PartitionReport(run.partition(), run.stats)


def write_report(f, payload) -> None:
    """Dump a verdict or partition report as JSON to the text file f."""
    json.dump(payload.to_dict(), f, indent=2)
    f.write("\n")
