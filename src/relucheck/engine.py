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
    """(core, regions): `net` without its input normalization, and the
    spec's regions as one stack of boxes in the coordinates that core
    reads. The analysis runs on these. The core holds `net.layers` itself,
    which `net` checked when it was built, so it is made without those
    checks. It is new on every call, so the `split_weights` it computes
    are freed with the run, not kept on `net`.

    Raises DimensionMismatchError when the spec's input dimension is not
    the network's."""
    if input_spec.dim != net.input_dim:
        raise DimensionMismatchError(
            f"property has {input_spec.dim} input dims, network expects {net.input_dim}"
        )
    ends = np.array([r.ends for r in input_spec.regions])
    if net.has_normalization and input_spec.units == "raw":
        # normalizing keeps lo <= hi, but it may overflow
        ends = net.normalize(ends)
        if not np.isfinite(ends).all():
            raise ValueError("a region's bounds overflow when normalized")
    core = object.__new__(Network)
    vars(core).update(layers=net.layers, norm_mean=None, norm_range=None)
    return core, Box.stack(ends)


def default_max_depth(regions: Box, precision: float) -> int:
    """ceil(log2(max initial width / precision)) * d, at least 1, over a
    box or a stack of boxes."""
    d = len(regions)
    with np.errstate(over="ignore"):
        wmax = float(regions.widths().max())
    if wmax <= precision:
        return 1
    ratio = wmax / precision
    if math.isinf(ratio):  # past the float range; halved widths are not
        half = float(np.max(regions.hi / 2 - regions.lo / 2))
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
    its leaves are read from them at the end."""

    def __init__(self, net: Network, spec, cfg: Config, short_circuit: bool):
        self.net = net
        input_spec, constraint = spec
        self.core, regions = internal_view(net, input_spec)
        self.cfg = cfg
        self.short_circuit = short_circuit
        self.check = compile_check(constraint, net.output_dim)
        # leaves and counterexamples are reported in the spec's units
        self.convert = net.has_normalization and input_spec.units == "raw"
        # the regions in both units, where a region's converted ends are
        # not its raw ends, so that a converted point may lie outside it
        self.clip = None
        if self.convert:
            raw = np.array([r.ends for r in input_spec.regions])
            if not (net.denormalize(regions.ends) == raw).all():
                self.clip = (regions.ends, raw)
        self.max_depth = (
            cfg.max_depth
            if cfg.max_depth is not None
            else default_max_depth(regions, cfg.precision)
        )
        # endpoint boxes would break an enumerated partition, and they are
        # unsound for disjunctions
        self.reduce = self.check.or_free and short_circuit and cfg.mode == "symbolic"
        # the regions are the first rows
        self.ends = regions.ends.copy()
        self.depth = [0] * len(self.ends)
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

    # -- the rows ------------------------------------------------------------
    def _take_rows(self, n: int) -> list:
        """Take n free rows, without an outcome or a plan. When too few are
        free, the blocks grow. The caller sets their depth and `ends`."""
        free, outcome, plan = self.free, self.outcome, self.plan
        if len(free) < n:
            size = len(outcome)
            grown = max(2 * size, size + n - len(free), _MIN_ROWS)
            self.ends = np.concatenate((self.ends, np.empty((grown - size,) + self.ends.shape[1:])))
            self.depth.extend([0] * (grown - size))
            outcome.extend([None] * (grown - size))
            plan.extend([-1] * (grown - size))
            free.extend(range(size, grown))
        cut = len(free) - n
        new = free[cut:]
        del free[cut:]
        for r in new:
            outcome[r] = None
            plan[r] = -1
        return new

    def _add_children(self, rows: list, sizes: list, steps: list) -> list:
        """Take free rows for the children of `rows`: sizes[k] rows for
        rows[k], each steps[k] levels deeper than it. Each parent's outcome
        becomes the list of its children. Returns all the new rows in that
        order; the caller fills in their `ends`."""
        depth, outcome = self.depth, self.outcome
        new = self._take_rows(sum(sizes))
        start = 0
        for r, k, s in zip(rows, sizes, steps):
            children = outcome[r] = new[start : start + k]
            start += k
            d = depth[r] + s
            for c in children:
                depth[c] = d
        return new

    def partition(self) -> list:
        """The leaves as (Box, status, cex), boxes in the spec's units."""
        ends = self.ends[[row for row, _, _ in self.leaves]]
        if self.convert:
            ends = self._to_raw(ends)
        boxes = Box.stack(ends).unstack()
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

    def _violates(self, y: np.ndarray):
        """Whether outputs violate the constraint. Outputs that are not all
        finite overflowed, and certify nothing about the real ones."""
        return np.logical_not(check_concrete(y, self.check)) & np.isfinite(y).all(axis=-1)

    def _to_raw(self, x: np.ndarray) -> np.ndarray:
        """(n, k, d) points of the core, k for each of n boxes, in raw
        units. Where `clip` is set, the points of a box go to the raw
        region of the first region that holds them all: a coordinate on one
        of the region's ends becomes its raw end, and the others are
        clipped into the raw region, so that leaves keep tiling it."""
        raw = self.net.denormalize(x)
        if self.clip is None:
            return raw
        norm, ends = self.clip
        inside = (x[:, :, np.newaxis] >= norm[:, 0]) & (x[:, :, np.newaxis] <= norm[:, 1])
        at = inside.all(axis=(1, 3)).argmax(axis=1)[:, np.newaxis]
        lo, hi = ends[at, 0], ends[at, 1]
        raw = np.where(x == norm[at, 0], lo, np.where(x == norm[at, 1], hi, raw))
        return np.minimum(np.maximum(raw, lo), hi)

    def _counterexamples(self, pts: np.ndarray) -> dict:
        """The first of each box's (B, S, d) sample points that violates
        the constraint, in the spec's units, by box index in rising order;
        boxes without one are left out. A raw-unit run on a normalized
        network converts the points to raw units once (`_to_raw`) and
        evaluates the raw points through the full network, so a point it
        reports is always the point whose outputs were checked. Other runs
        evaluate the points on the core."""
        net = self.core
        if self.convert:
            pts, net = self._to_raw(pts), self.net
        bad = self._violates(eval_concrete_batch(net, pts.reshape(-1, pts.shape[-1])))
        if not bad.any():
            return {}
        bad = bad.reshape(pts.shape[:2])
        first = bad.argmax(axis=1)
        return {b: pts[b, first[b]] for b in np.flatnonzero(bad.any(axis=1)).tolist()}

    def _attack(self, rows: list, box: Box) -> dict:
        """The first root box of a stack in which gradient steps find a
        counterexample, as {box index: counterexample in the spec's units},
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

    def _attack_root(self, region: int, lo: np.ndarray, hi: np.ndarray):
        """A counterexample in the root box [lo, hi] of a region, found by
        signed-gradient descent on the constraint's margin, or None.

        The starts are the box's midpoint, then _ATTACK_STARTS - 1 uniform
        points per literal, drawn by a generator seeded with the region's
        index (a root's row: the regions are the first rows, and a reused
        row is not a root). Each start takes _ATTACK_STEPS steps,
        the t-th of 0.25 * width * 2^(-t/4) in each dim, clipped to the
        box, each down the margin of the literal that is active at the
        point (`SoundCheck.active`); with one literal, that is its margin
        throughout. The starts and then the points after every step whose
        margin is <= 0 go to `_counterexamples`, and after the last step
        all points do."""
        k, d = len(self.check.t), len(lo)
        if not k:  # no literal, no start
            return None
        rng = random.Random(region)
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
        the row, its right child, its left child. A row whose own split is
        its plan adopts those children, which are then evaluated already;
        the other planned children are freed, with the rows they took. If
        the stack overflows, the wave's first row is evaluated alone,
        without its planned children."""
        kids = {}  # row -> its planned children, left then right
        plan, depth = self.plan, self.depth
        parents = [r for r in rows if plan[r] >= 0]
        if parents:
            new = self._take_rows(2 * len(parents))
            self._bisect(new, Box.stack(self.ends[parents]), [plan[r] for r in parents])
            for k, r in enumerate(parents):
                kids[r] = new[2 * k : 2 * k + 2]
                depth[new[2 * k]] = depth[new[2 * k + 1]] = depth[r] + 1
        stack = [c for r in rows for c in [r] + kids.get(r, [])[::-1]]
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
        at = np.array(rows)
        box = Box.stack(self.ends.take(at, axis=0))
        rest = self._refute(rows, self._counterexamples(box.midpoint()[:, np.newaxis, :]))
        if not rest:
            return
        if len(rest) < len(rows):
            box, rows = box.take(rest), [rows[i] for i in rest]
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
        widths = box.widths()

        J = None
        if cfg.mode == "symbolic":
            masks = ReluMaskMatrix(m[idx] for m in fr.masks)
            J = backward_gradient(self.core, masks)
            if J.ndim == 3:  # a net with no hidden layer: one J for all boxes
                J = np.broadcast_to(J, (len(rows),) + J.shape)
            if self.reduce:
                # monotonicity reduction: a box whose margins are monotone
                # in some dims is replaced by its endpoint boxes there
                mono = self.check.monotone_dims(J, widths > cfg.precision)
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
        widths = Box.stack(self.ends[new]).widths()
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
        its outcome."""
        stack = list(range(len(self.depth)))  # the regions, the only rows yet
        stats = self.stats
        depth, outcomes, free, pending = self.depth, self.outcome, self.free, self.pending
        t0, timeout = self.t0, self.cfg.timeout
        # bounds that overflow raise IntervalOverflowError; numpy's
        # warnings about them would only repeat that on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            while stack:
                row = stack.pop()
                stats.nodes_explored += 1
                stats.max_depth = max(stats.max_depth, depth[row])
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
        stats.wall_time = time.monotonic() - self.t0


def verify(net: Network, spec, cfg: Config = Config()) -> Verdict:
    """Prove the property over the whole input spec or find a violating
    point; Unknown when the budget runs out first."""
    run = _Run(net, spec, cfg, short_circuit=True)
    run.execute()
    if run.cex is not None:
        return Verdict(Status.INSECURE, np.asarray(run.cex), run.stats)
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
