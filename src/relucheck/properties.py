"""Security properties: input regions plus an output-constraint tree.

Atoms compare raw output scores (`le`, `ge`), pairwise differences
(`diffle i j c` meaning y_i - y_j <= c), or rank positions (`ismin`,
`ismax`, `notmin`, `notmax`). Rank atoms desugar into difference atoms
with non-strict comparisons, so a tie counts as minimal/maximal.

A constraint is compiled once, into a `SoundCheck`, where every atom is a
row r over the outputs with a threshold k. At a point the check is
two-valued: one product gives the atoms' truths r . y <= k, and the tree
is evaluated on those booleans. Over a box it is three-valued: an atom is
definitely-true when the bounds prove it for every point, definitely-false
when they refute it everywhere, otherwise unknown. Only definitely-true
maps to the Holds verdict.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gradients import IntervalJacobian
from .intervals import Box
from .propagate import ForwardResult
from .symbolic import expr_bounds

__all__ = [
    "PropertyParseError",
    "TriState",
    "InputSpec",
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
    if isinstance(c, (And, Or)):
        return max((max_output_index(a) for a in c.args), default=-1)
    if isinstance(c, Not):
        return max_output_index(c.arg)
    return max(c.i, c.j) if isinstance(c, DiffLE) else c.i


# ---------------------------------------------------------------------------
# evaluation


def check_concrete(y, c):
    """Float64 truth of the constraint at one output vector y: each atom
    r . y <= k is decided on its float64 value, for `diffle` y_i - y_j
    after its one rounding; truth over the reals is open work. Defined for
    finite y only. For an (n, m) batch of outputs, a bool array of the n
    truths.

    `c` is a constraint tree or a `SoundCheck` compiled from it.
    """
    y = np.asarray(y, dtype=np.float64)
    if not isinstance(c, SoundCheck):
        c = SoundCheck(c, y.shape[-1])
    holds = c.truth(y @ c.rows_t <= c.thresholds)
    return holds if holds.ndim else bool(holds)


class SoundCheck:
    """A constraint compiled once for evaluation on many boxes or points.

    Each atom is a row r over the outputs (e_i for `le`, -e_i for `ge`,
    e_i - e_j for `diffle`) and a threshold k, and holds where r . y <= k.
    The rows are the columns of `rows_t`, the thresholds `thresholds`;
    `truth` evaluates the constraint's tree on the atoms' truths.

    The sound check over a box reads the bounds of every atom's r . y, with
    their sign, from the vector [lo, hi, upper bounds of the differences,
    lower bounds of the differences], and evaluates the tree in Kleene's
    three values. Over a symbolic result, y_i - y_j is bounded through the
    combined rows up_i - low_j (upper) and low_i - up_j (lower), which
    keeps shared input terms correlated; all such rows are bounded in one
    `expr_bounds` call. What it reads is built at its first use, which a
    run decided by its root's sample never makes.

    Each literal, an atom under its negations, is also a row a_k with a
    threshold t_k, in `A` and `t`: its atom's, negated where `negated[k]`,
    the atom being under an odd number of `Not`s. The literal is violated
    where a_k . y - t_k > 0, or >= 0 where negated.

    `or_free` tells whether the constraint is a conjunction of literals in
    negation normal form: no `Or` outside a negation and no `And` under
    one. Only then is it violated wherever a single literal is, so that
    margins monotone in a dim put a violation, if the box has one, at an
    end of that dim; the monotonicity reduction and the gradient attack
    rely on this.
    """

    def __init__(self, c, m: int):
        self.or_free = True
        atoms, negated = [], []

        def compile_node(node, neg):
            if isinstance(node, (OutLE, OutGE, DiffLE)):
                atoms.append(node)
                negated.append(neg)
                return len(atoms) - 1
            if isinstance(node, (And, Or)):
                if isinstance(node, Or) != neg:
                    self.or_free = False
                return type(node), tuple(compile_node(a, neg) for a in node.args)
            if isinstance(node, Not):
                return Not, compile_node(node.arg, not neg)
            if isinstance(node, (IsMin, IsMax, NotMin, NotMax)):
                return compile_node(desugar(node, m), neg)
            raise TypeError(f"unknown constraint node {node!r}")

        self._node = compile_node(c, False)
        self._atoms, self._m = atoms, m
        self.truth = _tree(self._node, np.logical_not, True, False)
        rows = np.zeros((len(atoms), m))
        for k, a in enumerate(atoms):
            rows[k, a.i] = -1.0 if isinstance(a, OutGE) else 1.0
            if isinstance(a, DiffLE):
                rows[k, a.j] -= 1.0
        self.rows_t = rows.T
        self.thresholds = np.array([-a.c if isinstance(a, OutGE) else a.c for a in atoms])
        self.negated = np.array(negated, dtype=bool)

    @functools.cached_property
    def A(self) -> np.ndarray:
        # 0 - r rather than -r, so that a zero coefficient stays +0.0
        rows = self.rows_t.T
        return np.where(self.negated[:, np.newaxis], 0.0 - rows, rows)

    @functools.cached_property
    def t(self) -> np.ndarray:
        return np.where(self.negated, -self.thresholds, self.thresholds)

    @functools.cached_property
    def _sound(self) -> tuple:
        """What `evaluate` reads: the Kleene tree; the index, sign and
        threshold of every atom's upper, then lower bound, so that one
        comparison gives each atom's "proved", then its "not refuted"; and
        the row pairs (a, b) whose differences a - b bound every y_i - y_j,
        up_i - low_j from above, then low_i - up_j from below."""
        m = self._m
        pairs = [a for a in self._atoms if isinstance(a, DiffLE)]
        index, p = [], 2 * m
        for a in self._atoms:
            if isinstance(a, DiffLE):
                index.append((p, p + len(pairs)))
                p += 1
            else:
                index.append((m + a.i, a.i) if isinstance(a, OutLE) else (a.i, m + a.i))
        sign = [-1.0 if isinstance(a, OutGE) else 1.0 for a in self._atoms]
        i = np.array([a.i for a in pairs], dtype=np.intp)
        j = np.array([a.j for a in pairs], dtype=np.intp)
        return (
            _tree(self._node, lambda v: _TRUE - v, _TRUE, _FALSE),
            np.array([u for u, _ in index] + [l for _, l in index], dtype=np.intp),
            np.array(sign + sign),
            np.concatenate((self.thresholds, self.thresholds)),
            np.concatenate((m + i, i)),
            np.concatenate((j, m + j)),
        )

    def _diff_bounds(self, fr: ForwardResult, row_a, row_b):
        """(upper, lower) bound arrays of y_i - y_j for every diffle atom."""
        p = len(row_a) // 2
        if fr.rows is None:
            ends = np.concatenate((fr.lo, fr.hi), axis=-1)
            diff = ends[..., row_a] - ends[..., row_b]
            return diff[..., :p], diff[..., p:]
        # lower row i is row i, upper row i is row m + i
        flat = fr.rows.reshape(fr.rows.shape[:-3] + (-1, fr.rows.shape[-1]))
        lo, hi = expr_bounds(flat[..., row_a, :] - flat[..., row_b, :], fr.operand)
        return hi[..., :p], lo[..., p:]

    def evaluate(self, fr: ForwardResult):
        """Where the bounds prove the constraint at every point of the box
        (or of each box of the stack) that `fr` bounds, as a bool array.

        The tree is evaluated in Kleene's three values, so that a `Not`
        of an atom the bounds neither prove nor refute stays unknown."""
        tree, index, sign, bound, row_a, row_b = self._sound
        bounds = [fr.lo, fr.hi]
        if len(row_a):
            bounds.extend(self._diff_bounds(fr, row_a, row_b))
        flags = np.concatenate(bounds, axis=-1)[..., index] * sign <= bound
        n = len(index) // 2
        # an atom is TRUE where proved, else UNKNOWN unless refuted
        return tree(np.maximum(_TRUE * flags[..., :n], flags[..., n:])) == _TRUE

    def monotone_dims(self, J: IntervalJacobian, wide):
        """(B, d) bool: the dims in `wide` where every literal's margin has
        a sign-definite derivative over the box, by the interval product of
        `A` with the interval Jacobian `J` of its stack."""
        pos, neg = np.maximum(self.A, 0.0), np.minimum(self.A, 0.0)
        lo = pos @ J.lo + neg @ J.hi
        hi = pos @ J.hi + neg @ J.lo
        return ((lo > 0.0) | (hi < 0.0)).all(axis=-2) & wide


# Kleene values as integers: And is the minimum, Or the maximum, Not 2 - v
_FALSE, _UNKNOWN, _TRUE = 0, 1, 2


def _tree(node, negate, true, false):
    """The function from atom values (last axis) to the value of a
    compiled node, in a logic whose And is the minimum, Or the maximum and
    Not `negate`, with `true` and `false` its ends: Boolean logic on bool
    arrays, Kleene's on its values as integers."""
    if isinstance(node, int):
        return lambda v: v[..., node]
    op, arg = node
    if op is Not:
        inner = _tree(arg, negate, true, false)
        return lambda v: negate(inner(v))
    pair, empty = (np.minimum, true) if op is And else (np.maximum, false)
    atoms = [a for a in arg if isinstance(a, int)]
    subs = [_tree(a, negate, true, false) for a in arg if not isinstance(a, int)]
    # a run of consecutive atoms, the usual case, is read as a view
    run = atoms and atoms == list(range(atoms[0], atoms[0] + len(atoms)))
    at = slice(atoms[0], atoms[0] + len(atoms)) if run else np.array(atoms, dtype=np.intp)

    def value(v):
        out = pair.reduce(v[..., at], axis=-1, initial=empty)
        for sub in subs:
            out = pair(out, sub(v))
        return out

    return value


def check_sound(fr: ForwardResult, c):
    """Holds only when the bounds prove the constraint for all of the box
    (or stack) that `fr` bounds.

    For a stack of boxes, a bool array of where it holds. `c` is a
    constraint tree or, for repeated checks, a `SoundCheck` compiled from it.
    """
    if not isinstance(c, SoundCheck):
        c = SoundCheck(c, fr.lo.shape[-1])
    holds = c.evaluate(fr)
    if holds.ndim:
        return holds
    return TriState.HOLDS if holds else TriState.MAY_VIOLATE


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
            v = float(tok)
        except ValueError:
            raise PropertyParseError(f"expected a number, got {tok!r}") from None
        if not math.isfinite(v):
            raise PropertyParseError(f"expected a finite number, got {tok!r}")
        return v

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
    expression), optional ``units:`` and ``outputs:`` headers. A declared
    output count must be at least 1 and, when `num_outputs` is given, equal
    to it. When the output count is neither given nor declared, it is
    inferred from the largest referenced index.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as e:
            raise PropertyParseError(f"property file is not UTF-8 text: {e}") from None

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
            if declared_outputs < 1:
                raise PropertyParseError(f"line {lineno}: outputs must be >= 1, got {text!r}")
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
    if None not in (num_outputs, declared_outputs) and num_outputs != declared_outputs:
        raise PropertyParseError(
            f"property declares {declared_outputs} outputs, the network has {num_outputs}"
        )
    m = num_outputs if num_outputs is not None else declared_outputs
    if m is None:
        m = max_output_index(constraint) + 1
    if max_output_index(constraint) >= m:
        raise PropertyParseError("constraint references an output index out of range")
    return InputSpec(tuple(regions), units), desugar(constraint, m)
