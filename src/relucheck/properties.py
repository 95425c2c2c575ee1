"""Security properties: input regions plus an output-constraint tree.

Atoms compare raw output scores (`le`, `ge`), pairwise differences
(`diffle i j c` meaning y_i - y_j <= c), or rank positions (`ismin`,
`ismax`, `notmin`, `notmax`). Rank atoms desugar into difference atoms
with non-strict comparisons, so a tie counts as minimal/maximal.

A constraint is compiled once per output count, into a `SoundCheck` that
every later check of an equal constraint reuses: negations pushed down
to the atoms, one And/Or tree over literals, and literal k a row a_k over
the outputs that holds where a_k . y <= bound_k. The tree takes the least
of its arguments for an And and the greatest for an Or, and everything
that reads the constraint runs it. At a point the checks read the
literals' truths from one product, y @ A.T <= bound. Over a box a literal
counts as true where an upper bound of a_k . y over the box is <= bound_k;
in negation normal form this is Kleene's definitely-true, and only it
maps to the Holds verdict. On the literals' margins bound_k - a_k . y the
tree gives the constraint's margin, >= 0 exactly where it holds; the root
attack lowers the same tree over t_k - a_k . y.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .intervals import Box, affine_rows
from .network import DimensionMismatchError, read_text
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
    "compile_check",
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
    """Rewrite a rank atom into the And or Or of its difference atoms over
    m outputs."""
    if isinstance(c, IsMin):
        return And(tuple(DiffLE(c.i, j, 0.0) for j in range(m) if j != c.i))
    if isinstance(c, IsMax):
        return And(tuple(DiffLE(j, c.i, 0.0) for j in range(m) if j != c.i))
    if isinstance(c, NotMin):
        return Or(tuple(DiffLE(j, c.i, 0.0) for j in range(m) if j != c.i))
    if isinstance(c, NotMax):
        return Or(tuple(DiffLE(c.i, j, 0.0) for j in range(m) if j != c.i))
    raise TypeError(f"not a rank atom: {c!r}")


def max_output_index(c) -> int:
    if isinstance(c, (And, Or)):
        return max((max_output_index(a) for a in c.args), default=-1)
    if isinstance(c, Not):
        return max_output_index(c.arg)
    return max(c.i, c.j) if isinstance(c, DiffLE) else c.i


# ---------------------------------------------------------------------------
# evaluation


def check_concrete(y, c):
    """Float64 truth of the constraint at one output vector y: each literal
    a . y <= bound is decided on its float64 value, for a difference
    y_i - y_j after its one rounding; truth over the reals is open work.
    Defined for finite y only. For an (n, m) batch of outputs, a bool array
    of the n truths.

    `c` is a constraint tree or a `SoundCheck` compiled from it.
    """
    y = np.asarray(y, dtype=np.float64)
    if not isinstance(c, SoundCheck):
        c = compile_check(c, y.shape[-1])
    holds = c.tree(y @ c.A.T <= c.bound)
    return holds if holds.ndim else bool(holds)


class SoundCheck:
    """A constraint compiled once for evaluation on many boxes or points.

    Every `Not` is pushed down to the atoms (De Morgan), leaving one And/Or
    tree over literals; `tree` evaluates it on values of the literals (last
    axis), the least of its arguments' values for an And and the greatest
    for an Or. On the literals' truths that is the constraint's truth. On
    their margins bound[k] - a_k . y it is the constraint's margin, >= 0
    exactly where the constraint holds. Literal k is a row a_k of `A`
    (e_i for `le`, -e_i for `ge`, e_i - e_j for `diffle`, negated under an
    odd number of `Not`s) with a threshold t_k in `t`. A negated literal
    is strict, a_k . y < t_k, so `bound[k]` is t_k, or the float below it
    where strict: every literal holds exactly where a_k . y <= bound[k].

    Over a box a literal counts as true where an upper bound of a_k . y is
    <= bound[k]. That is Kleene's definitely-true: in negation normal form
    an And or Or is definitely true where all or any of its arguments are,
    and a negated atom where the bounds refute the atom. Over the output
    bounds, the upper bound is hi @ A+ + lo @ A-, rounded up exactly. Over
    a symbolic result it is that of the upper literal row A+ @ up + A- @ low,
    made through the products of `affine_rows`' upper half alone, which
    keeps the input terms shared by y_i and y_j correlated. One check may
    serve many runs (`compile_check`), so `A`, `t`, `bound` and (A+, A-),
    the positive and the negative part of `A`, are read-only.

    `or_free` tells whether the tree has no `Or`. Only then is the
    constraint violated wherever a single literal is, so that margins
    monotone in a dim put a violation, if the box has one, at an end of
    that dim; only the monotonicity reduction relies on this.

    Raises DimensionMismatchError for an output index outside range(m),
    ValueError for a threshold that is not finite.
    """

    def __init__(self, c, m: int):
        self.or_free = True
        table = []  # per literal: a_k, t_k, bound[k]

        def compile_node(node, neg):
            if isinstance(node, (OutLE, OutGE, DiffLE)):
                diff = isinstance(node, DiffLE)
                if node.i not in range(m) or diff and node.j not in range(m):
                    raise DimensionMismatchError(f"{node!r} reads an output outside range({m})")
                c = float(node.c)
                if not math.isfinite(c):
                    raise ValueError(f"threshold of {node!r} is not finite")
                # the literal s (y_i - y_j) <= s c, no y_j outside `diffle`,
                # with s = -1 for `ge`, flipped under a negation
                s = -1.0 if isinstance(node, OutGE) != neg else 1.0
                row = [0.0] * (m + 2)
                row[node.i] = s
                if diff:
                    row[node.j] -= s
                row[m] = row[m + 1] = s * c
                if neg:
                    row[m + 1] = math.nextafter(s * c, -math.inf)
                table.append(row)
                return len(table) - 1
            if isinstance(node, Not):
                return compile_node(node.arg, not neg)
            if isinstance(node, (And, Or)):
                op = (Or if isinstance(node, And) else And) if neg else type(node)
                self.or_free = self.or_free and op is And
                return op, tuple(compile_node(a, neg) for a in node.args)
            if isinstance(node, (IsMin, IsMax, NotMin, NotMax)):
                return compile_node(desugar(node, m), neg)
            raise TypeError(f"unknown constraint node {node!r}")

        self.tree = _tree(compile_node(c, False))
        table = np.array(table).reshape(len(table), m + 2)
        table.setflags(write=False)  # and so its views
        self.A, self.t, self.bound = table[:, :m], table[:, m], table[:, m + 1]
        # (A+, A-): the positive and the negative part of `A`
        self._split = np.maximum(self.A, 0.0), np.minimum(self.A, 0.0)
        for part in self._split:
            part.setflags(write=False)

    def evaluate(self, fr: ForwardResult):
        """Where the bounds prove the constraint at every point of the box
        (or of each box of the stack) that `fr` bounds, as a bool array.

        Over a symbolic result, raises IntervalOverflowError where a
        literal's upper bound and an output's bound are not finite."""
        pos, neg = self._split
        if fr.rows is None:
            upper = _sum_up(fr.hi @ pos.T, fr.lo @ neg.T)
        else:
            # the upper half of `affine_rows(fr.rows, pos, neg, 0.0)`,
            # through the same products
            low, up = fr.rows[..., 0, :, :].swapaxes(-1, -2), fr.rows[..., 1, :, :].swapaxes(-1, -2)
            _, upper = expr_bounds((up @ pos.T + low @ neg.T).swapaxes(-1, -2), fr.operand)
            if not np.isfinite(upper).all():
                # the pass left the outputs unbounded: bounding them now
                # raises where one overflowed. Over finite outputs, a
                # literal bound that overflows decides nothing, as in the
                # naive check
                fr.lo
        return self.tree(upper <= self.bound)

    def active(self, y: np.ndarray) -> tuple:
        """(r, k) at a batch of outputs y (n, m): the tree's value r (n,)
        on the margins t_k - a_k . y, and the literal k (n,) that sets it
        at each point, the first whose margin is r. The constraint holds
        wherever r > 0, so a point that violates it has r <= 0. The
        constraint needs a literal."""
        margins = self.t - y @ self.A.T
        r = self.tree(margins)
        return r, (margins == r[:, np.newaxis]).argmax(axis=-1)

    def monotone_dims(self, J: np.ndarray, wide):
        """(B, d) bool: the dims in `wide` where every literal's margin has
        a sign-definite derivative over the box, by the interval product of
        `A` with the (B, 2, m, d) interval Jacobian `J` of its stack."""
        ends = affine_rows(J, *self._split, 0.0)
        return ((ends[..., 0, :, :] > 0.0) | (ends[..., 1, :, :] < 0.0)).all(axis=-2) & wide


@functools.lru_cache(maxsize=256)
def _compile_cached(c, m: int) -> SoundCheck:
    return SoundCheck(c, m)


def compile_check(c, m: int) -> SoundCheck:
    """The `SoundCheck` of constraint `c` over m outputs, compiled once per
    (constraint, output count): a later call with an equal constraint,
    the same object or another parse of the same file, gets the same
    check. A constraint that cannot be hashed, say one holding a threshold
    in a numpy array, is compiled anew on each call."""
    try:
        return _compile_cached(c, m)
    except TypeError:  # unhashable, or a node that `SoundCheck` rejects
        return SoundCheck(c, m)


def _sum_up(p, q):
    """The least float >= p + q, entrywise (inf above the float range).
    The rounded sum s is one ULP up where it rounded down, that is where
    TwoSum's error term is positive. Where |p| >= |q|, s - p is exact
    (as in Fast2Sum), so that is where s - p < q; likewise with p and q
    swapped. Each of a literal's products, hi @ A+ and lo @ A-, has at
    most one nonzero term of coefficient +-1, so it is exact."""
    with np.errstate(over="ignore"):
        s = p + q
        down = (s - p < q) | (s - q < p)
    s[down] = np.nextafter(s[down], np.inf)
    return s


def _tree(node):
    """The function from literal values (last axis) to the value of a
    compiled node, a literal's index or an (And or Or, arguments) pair:
    the least of its arguments' values for an And, the greatest for an
    Or. On the literals' truths that is the node's truth; on their
    margins, the node's margin."""
    if isinstance(node, int):
        return lambda v: v[..., node]
    op, args = node
    pair = np.minimum if op is And else np.maximum
    if not args:
        # an empty And holds and an empty Or does not: the greatest or the
        # least value, a truth or a margin
        top = op is And
        return lambda v: np.full(v.shape[:-1], top if v.dtype == bool else (np.inf if top else -np.inf))
    parts = [_tree(a) for a in args if not isinstance(a, int)]
    literals = [a for a in args if isinstance(a, int)]
    if literals:
        # a run of consecutive literals, the usual case, is read as a view
        first = literals[0]
        run = literals == list(range(first, first + len(literals)))
        at = slice(first, first + len(literals)) if run else np.array(literals, dtype=np.intp)
        parts.insert(0, lambda v: pair.reduce(v[..., at], axis=-1))
    head, *rest = parts
    if not rest:
        return head

    def value(v):
        out = head(v)
        for part in rest:
            out = pair(out, part(v))
        return out

    return value


def check_sound(fr: ForwardResult, c):
    """Holds only when the bounds prove the constraint for all of the box
    (or stack) that `fr` bounds.

    For a stack of boxes, a bool array of where it holds. `c` is a
    constraint tree or, for repeated checks, a `SoundCheck` compiled from it.
    """
    if not isinstance(c, SoundCheck):
        # a symbolic result's rows give the output count without bounding it
        c = compile_check(c, fr.lo.shape[-1] if fr.rows is None else fr.rows.shape[-2])
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
            return cls(*[self.number() if arg == "c" else self.index() for arg in kind])
        raise PropertyParseError(f"unknown constraint token {tok!r}")

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise PropertyParseError(f"trailing constraint tokens from {self.peek()!r}")
        return node


def _bound_pair(line: str, lineno: int):
    """The (lo, hi) of a ``lo hi`` line: two finite numbers."""
    try:
        lo, hi = line.split()
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise PropertyParseError(f"line {lineno}: expected 'lo hi', got {line!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise PropertyParseError(f"line {lineno}: bounds must be finite")
    return lo, hi


def parse_property(source, num_outputs: Optional[int] = None):
    """Parse a property file into (InputSpec, constraint), the constraint
    tree as written: rank atoms are desugared when a `SoundCheck` compiles
    it against the network's output count.

    Sections: ``domain:`` (d lines ``lo hi``), one or more ``region:``
    sections (``lo hi`` or ``*`` per line), ``constraint:`` (prefix
    expression), optional ``units:`` and ``outputs:`` headers. A declared
    output count must be at least 1 and, when `num_outputs` is given, equal
    to it. When either is known, every output index the constraint reads
    must be below it.
    """
    source = read_text(source, PropertyParseError, "property")
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
            domain.append(_bound_pair(line, lineno))
        elif section == "region":
            region_specs[-1].append(None if line == "*" else _bound_pair(line, lineno))
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
        regions.append(Box(lo, hi))

    constraint = _ConstraintParser(constraint_tokens).parse()
    if None not in (num_outputs, declared_outputs) and num_outputs != declared_outputs:
        raise PropertyParseError(
            f"property declares {declared_outputs} outputs, the network has {num_outputs}"
        )
    m = num_outputs if num_outputs is not None else declared_outputs
    if m is not None and max_output_index(constraint) >= m:
        raise PropertyParseError("constraint references an output index out of range")
    return InputSpec(tuple(regions), units), constraint
