"""Security properties: input regions plus an output-constraint tree.

Atoms compare raw output scores (`le`, `ge`), pairwise differences
(`diffle i j c` meaning y_i - y_j <= c), or rank positions (`ismin`,
`ismax`, `notmin`, `notmax`). Rank atoms desugar into difference atoms
with non-strict comparisons, so a tie counts as minimal/maximal.

Sound evaluation over a box is three-valued internally: an atom is
definitely-true when the bounds prove it for every point, definitely-false
when they refute it everywhere, otherwise unknown. Only definitely-true
maps to the Holds verdict.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .intervals import Box, RoundingPolicy, DEFAULT_POLICY
from .propagate import ForwardResult
from .symbolic import expr_bounds

__all__ = [
    "PropertyParseError",
    "TriState",
    "InputSpec",
    "RobustnessSpec",
    "OutLE",
    "OutGE",
    "DiffLE",
    "IsMin",
    "IsMax",
    "NotMin",
    "NotMax",
    "And",
    "Or",
    "Not",
    "desugar",
    "parse_property",
    "robustness_to_property",
    "SoundCheck",
    "check_sound",
    "check_concrete",
]


class PropertyParseError(ValueError):
    pass


class TriState(enum.Enum):
    HOLDS = "holds"
    MAY_VIOLATE = "may_violate"


@dataclass(frozen=True)
class InputSpec:
    """Union of input boxes, with a raw/normalized units flag."""

    regions: tuple
    units: str = "raw"

    def __post_init__(self):
        regions = tuple(self.regions)
        object.__setattr__(self, "regions", regions)
        if not regions:
            raise PropertyParseError("property needs at least one input region")
        if self.units not in ("raw", "normalized"):
            raise PropertyParseError(f"bad units flag {self.units!r}")
        d = len(regions[0])
        if any(len(r) != d for r in regions):
            raise PropertyParseError("all regions must share one dimension")

    @property
    def dim(self) -> int:
        return len(self.regions[0])


@dataclass(frozen=True)
class RobustnessSpec:
    """L-infinity ball around a seed point; the label must stay on top."""

    seed: np.ndarray
    radius: float
    label: int

    def __post_init__(self):
        object.__setattr__(self, "seed", np.asarray(self.seed, dtype=np.float64))
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")


# ---------------------------------------------------------------------------
# constraint tree


@dataclass(frozen=True)
class OutLE:
    i: int
    c: float


@dataclass(frozen=True)
class OutGE:
    i: int
    c: float


@dataclass(frozen=True)
class DiffLE:
    """y_i - y_j <= c"""

    i: int
    j: int
    c: float


@dataclass(frozen=True)
class IsMin:
    i: int


@dataclass(frozen=True)
class IsMax:
    i: int


@dataclass(frozen=True)
class NotMin:
    i: int


@dataclass(frozen=True)
class NotMax:
    i: int


@dataclass(frozen=True)
class And:
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Or:
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Not:
    arg: object


def desugar(c, m: int):
    """Rewrite rank atoms into difference atoms over m outputs."""
    if isinstance(c, IsMin):
        return And(tuple(DiffLE(c.i, j, 0.0) for j in range(m) if j != c.i))
    if isinstance(c, IsMax):
        return And(tuple(DiffLE(j, c.i, 0.0) for j in range(m) if j != c.i))
    if isinstance(c, NotMin):
        return Or(tuple(DiffLE(j, c.i, 0.0) for j in range(m) if j != c.i))
    if isinstance(c, NotMax):
        return Or(tuple(DiffLE(c.i, j, 0.0) for j in range(m) if j != c.i))
    if isinstance(c, And):
        return And(tuple(desugar(a, m) for a in c.args))
    if isinstance(c, Or):
        return Or(tuple(desugar(a, m) for a in c.args))
    if isinstance(c, Not):
        return Not(desugar(c.arg, m))
    return c


def max_output_index(c) -> int:
    idx = [-1]

    def walk(node):
        if isinstance(node, (OutLE, OutGE, IsMin, IsMax, NotMin, NotMax)):
            idx[0] = max(idx[0], node.i)
        if isinstance(node, DiffLE):
            idx[0] = max(idx[0], node.i, node.j)
        if isinstance(node, (And, Or)):
            for a in node.args:
                walk(a)
        if isinstance(node, Not):
            walk(node.arg)

    walk(c)
    return idx[0]


# ---------------------------------------------------------------------------
# evaluation


def check_concrete(y, c):
    """Exact truth of the constraint at one output vector: its sound check
    over the point enclosure [y, y], where every atom is decided. For an
    (n, m) batch of outputs, a bool array of the n truths.

    `c` is a constraint tree or a `SoundCheck` compiled from it.
    """
    y = np.asarray(y, dtype=np.float64)
    if not isinstance(c, SoundCheck):
        c = SoundCheck(c, y.shape[-1])
    holds, _ = c.evaluate(ForwardResult(y, y))
    return holds if holds.ndim else bool(holds)


class SoundCheck:
    """A constraint compiled once for sound evaluation on many boxes or
    points.

    Each atom becomes a margin v <= k: v = y_i for `le`, v = -y_i for `ge`
    (so that -y_i <= -c), v = y_i - y_j for `diffle`. The bounds of every
    margin are read, with their sign, from the vector [lo, hi, upper
    bounds of the differences, lower bounds of the differences]. Over a
    symbolic result, y_i - y_j is bounded through the combined rows
    up_i - low_j (upper) and low_i - up_j (lower), which keeps shared input
    terms correlated; all such rows are bounded in one `expr_bounds` call
    under `policy`.
    """

    def __init__(self, c, m: int, policy: RoundingPolicy = DEFAULT_POLICY):
        self.policy = policy
        atoms, pairs = [], []  # atoms: (upper bound index, lower bound index, sign, k)

        def compile_node(node):
            if isinstance(node, OutLE):
                atoms.append((m + node.i, node.i, 1.0, node.c))
            elif isinstance(node, OutGE):
                atoms.append((node.i, m + node.i, -1.0, -node.c))
            elif isinstance(node, DiffLE):
                atoms.append((2 * m + len(pairs), None, 1.0, node.c))
                pairs.append((node.i, node.j))
            elif isinstance(node, (And, Or)):
                return type(node), tuple(compile_node(a) for a in node.args)
            elif isinstance(node, Not):
                return Not, compile_node(node.arg)
            else:
                raise TypeError(f"unknown constraint node {node!r}")
            return len(atoms) - 1

        self.tree = _kleene(compile_node(desugar(c, m)))
        p = len(pairs)
        ub = [u for u, _, _, _ in atoms]
        lb = [u + p if l is None else l for u, l, _, _ in atoms]
        sign = [s for _, _, s, _ in atoms]
        bound = [k for _, _, _, k in atoms]
        # one comparison gives each atom's "proved" (ub <= k), then its
        # "not refuted" (lb <= k)
        self.index = np.array(ub + lb, dtype=np.intp)
        self.sign = np.array(sign + sign, dtype=np.float64)
        self.bound = np.array(bound + bound, dtype=np.float64)
        self.i = np.array([i for i, _ in pairs], dtype=np.intp)
        self.j = np.array([j for _, j in pairs], dtype=np.intp)
        # row pairs (a, b) of a symbolic result whose difference a - b
        # bounds y_i - y_j: up_i - low_j from above, low_i - up_j from below
        self.row_a = np.concatenate((m + self.i, self.i))
        self.row_b = np.concatenate((self.j, m + self.j))

    def _diff_bounds(self, fr: ForwardResult):
        """(upper, lower) bound arrays of y_i - y_j for every diffle atom."""
        i, j, rows = self.i, self.j, fr.rows
        if rows is None:
            return fr.hi[..., i] - fr.lo[..., j], fr.lo[..., i] - fr.hi[..., j]
        flat = rows.flat
        diff = flat[..., self.row_a, :] - flat[..., self.row_b, :]
        lo, hi = expr_bounds(diff[..., :-1], diff[..., -1], fr.operand, self.policy)
        return hi[..., : len(i)], lo[..., len(i) :]

    def evaluate(self, fr: ForwardResult):
        """Kleene value of the constraint over the box (or each box of the
        stack) that `fr` bounds, as two bool arrays: where the bounds prove
        it at every point of a box, and where they refute it at every point.
        Neither means unknown."""
        bounds = [fr.lo, fr.hi]
        if len(self.i):
            bounds.extend(self._diff_bounds(fr))
        flags = np.concatenate(bounds, axis=-1)[..., self.index] * self.sign <= self.bound
        n = len(self.index) // 2
        # an atom is TRUE where proved, else UNKNOWN unless refuted
        value = self.tree(np.maximum(_TRUE * flags[..., :n], flags[..., n:]))
        return value == _TRUE, value == _FALSE


# Kleene values as integers: And is the minimum, Or the maximum, Not 2 - v
_FALSE, _UNKNOWN, _TRUE = 0, 1, 2


def _kleene(node):
    """The function from atom values (last axis) to the value of a
    compiled node."""
    if isinstance(node, int):
        return lambda v: v[..., node]
    op, arg = node
    if op is Not:
        inner = _kleene(arg)
        return lambda v: _TRUE - inner(v)
    atoms = np.array([a for a in arg if isinstance(a, int)], dtype=np.intp)
    subs = [_kleene(a) for a in arg if not isinstance(a, int)]
    reduce, pair, empty = (np.min, np.minimum, _TRUE) if op is And else (np.max, np.maximum, _FALSE)

    def value(v):
        out = reduce(v[..., atoms], axis=-1) if len(atoms) else np.full(v.shape[:-1], empty)
        for sub in subs:
            out = pair(out, sub(v))
        return out

    return value


def check_sound(fr: ForwardResult, c, x: Optional[Box] = None):
    """Holds only when the bounds prove the constraint for all of x, the
    box (or stack) that `fr` bounds; `fr` carries all that the check reads.

    For a stack of boxes, a bool array of where it holds. `c` is a
    constraint tree or, for repeated checks, a `SoundCheck` compiled from it.
    """
    if not isinstance(c, SoundCheck):
        c = SoundCheck(c, fr.lo.shape[-1])
    holds, _ = c.evaluate(fr)
    if holds.ndim:
        return holds
    return TriState.HOLDS if holds else TriState.MAY_VIOLATE


# ---------------------------------------------------------------------------
# robustness ball


def robustness_to_property(r: RobustnessSpec, domain: Optional[Box] = None):
    """L-inf ball around the seed (clamped to the domain) + IsMax(label)."""
    lo = r.seed - r.radius
    hi = r.seed + r.radius
    if domain is not None:
        if len(domain) != r.seed.shape[0]:
            raise ValueError("domain dimension disagrees with seed")
        lo = np.maximum(lo, domain.lo)
        hi = np.minimum(hi, domain.hi)
    box = Box.from_arrays(lo, hi)
    return InputSpec((box,)), IsMax(r.label)


# ---------------------------------------------------------------------------
# property file parsing


_ATOM_ARITY = {
    "le": ("ic", OutLE),
    "ge": ("ic", OutGE),
    "diffle": ("ijc", DiffLE),
    "ismin": ("i", IsMin),
    "ismax": ("i", IsMax),
    "notmin": ("i", NotMin),
    "notmax": ("i", NotMax),
}
_COMBINATORS = {"and": And, "or": Or}


def _tokenize(text: str):
    for ch in "(),":
        text = text.replace(ch, f" {ch} ")
    return text.split()


class _ConstraintParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise PropertyParseError("unexpected end of constraint")
        if expected is not None and tok != expected:
            raise PropertyParseError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def number(self) -> float:
        tok = self.take()
        try:
            return float(tok)
        except ValueError:
            raise PropertyParseError(f"expected a number, got {tok!r}") from None

    def index(self) -> int:
        v = self.number()
        if v != int(v) or v < 0:
            raise PropertyParseError(f"output index must be a nonnegative integer, got {v}")
        return int(v)

    def expr(self):
        tok = self.take()
        if tok in _COMBINATORS:
            self.take("(")
            args = []
            while self.peek() != ")":
                args.append(self.expr())
                if self.peek() == ",":
                    self.take(",")
            self.take(")")
            return _COMBINATORS[tok](tuple(args))
        if tok == "not":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return Not(inner)
        if tok in _ATOM_ARITY:
            kind, cls = _ATOM_ARITY[tok]
            if kind == "i":
                return cls(self.index())
            if kind == "ic":
                return cls(self.index(), self.number())
            return cls(self.index(), self.index(), self.number())
        raise PropertyParseError(f"unknown constraint token {tok!r}")

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise PropertyParseError(f"trailing constraint tokens from {self.peek()!r}")
        return node


def _bound_pair(vals, lineno: int):
    try:
        lo, hi = float(vals[0]), float(vals[1])
    except ValueError:
        vals = " ".join(vals)
        raise PropertyParseError(f"line {lineno}: expected two numbers, got {vals!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise PropertyParseError(f"line {lineno}: bounds must be finite")
    return lo, hi


def parse_property(source, num_outputs: Optional[int] = None):
    """Parse a property file into (InputSpec, desugared constraint).

    Sections: ``domain:`` (d lines ``lo hi``), one or more ``region:``
    sections (``lo hi`` or ``*`` per line), ``constraint:`` (prefix
    expression), optional ``units:`` and ``outputs:`` headers. When the
    output count is neither given nor declared, it is inferred from the
    largest referenced index.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")

    units = "raw"
    declared_outputs = None
    domain = []
    region_specs = []
    constraint_tokens = []
    section = None

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        if low.startswith("units:"):
            units = line.split(":", 1)[1].strip().lower()
            if units not in ("raw", "normalized"):
                raise PropertyParseError(f"line {lineno}: units must be raw|normalized")
            continue
        if low.startswith("outputs:"):
            text = line.split(":", 1)[1].strip()
            try:
                declared_outputs = int(text)
            except ValueError:
                raise PropertyParseError(
                    f"line {lineno}: outputs must be an integer, got {text!r}"
                ) from None
            continue
        if low == "domain:":
            section = "domain"
            continue
        if low == "region:":
            region_specs.append([])
            section = "region"
            continue
        if low == "constraint:":
            section = "constraint"
            continue
        if section == "domain":
            vals = line.split()
            if len(vals) != 2:
                raise PropertyParseError(f"line {lineno}: domain line must be 'lo hi'")
            domain.append(_bound_pair(vals, lineno))
        elif section == "region":
            if line == "*":
                region_specs[-1].append(None)
            else:
                vals = line.split()
                if len(vals) != 2:
                    raise PropertyParseError(f"line {lineno}: region line must be 'lo hi' or '*'")
                region_specs[-1].append(_bound_pair(vals, lineno))
        elif section == "constraint":
            constraint_tokens.extend(_tokenize(line))
        else:
            raise PropertyParseError(f"line {lineno}: content outside any section")

    if not domain:
        raise PropertyParseError("missing domain: section")
    d = len(domain)
    if not region_specs:
        raise PropertyParseError("missing region: section")
    if not constraint_tokens:
        raise PropertyParseError("missing constraint: section")

    regions = []
    for k, spec in enumerate(region_specs):
        if len(spec) != d:
            raise PropertyParseError(
                f"region {k} has {len(spec)} lines, domain has {d}"
            )
        lo, hi = [], []
        for j, entry in enumerate(spec):
            a, b = entry if entry is not None else domain[j]
            if a > b:
                raise PropertyParseError(f"region {k} dim {j}: empty range [{a}, {b}]")
            lo.append(a)
            hi.append(b)
        regions.append(Box.from_arrays(lo, hi))

    constraint = _ConstraintParser(constraint_tokens).parse()
    m = num_outputs if num_outputs is not None else declared_outputs
    if m is None:
        m = max_output_index(constraint) + 1
    if max_output_index(constraint) >= m:
        raise PropertyParseError("constraint references an output index out of range")
    return InputSpec(tuple(regions), units), desugar(constraint, m)
