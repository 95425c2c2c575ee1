"""Exact rational reference for the benchmark's correctness checks.

Nothing here imports relucheck: the network and property files are parsed
again and evaluated in exact rational arithmetic, so a verdict is checked
against the files the verifier read, not against the verifier's own code.
"""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# networks


class ExactNet:
    """Affine layers with ReLU between them and optional input normalization.

    Weights are kept as integer numerators over one power-of-two
    denominator per layer (every float is a dyadic rational), so a forward
    pass is integer arithmetic over a common denominator and exact.
    """

    def __init__(self, layers, norm):
        self.norm = norm  # list of (mean, range) Fractions, or None
        self.float_layers = layers
        self.layers = []
        for W, b in layers:
            ratios = [v.as_integer_ratio() for row in W for v in row]
            ratios += [v.as_integer_ratio() for v in b]
            den = max(d for _, d in ratios)
            n_in = len(W[0])
            flat = [n * (den // d) for n, d in ratios]
            rows = [flat[i * n_in:(i + 1) * n_in] for i in range(len(W))]
            bias = flat[len(W) * n_in:]
            self.layers.append((rows, bias, den))

    def forward(self, x):
        """Exact outputs (Fractions) at a raw-unit input point of floats."""
        xs = [Fraction(v) for v in x]
        if self.norm is not None:
            xs = [(v - m) / r for v, (m, r) in zip(xs, self.norm)]
        den = math.lcm(*(v.denominator for v in xs))
        nums = [v.numerator * (den // v.denominator) for v in xs]
        last = len(self.layers) - 1
        for k, (rows, bias, wden) in enumerate(self.layers):
            nums = [sum(w * n for w, n in zip(row, nums)) + c * den for row, c in zip(rows, bias)]
            den *= wden
            if k != last:
                nums = [n if n > 0 else 0 for n in nums]
        return [Fraction(n, den) for n in nums]


def read_net(path) -> ExactNet:
    """Parse the text network format written by the workload generator."""
    lines = []
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if line:
                lines.append(line)
    sizes = [int(v) for v in lines[1].split(",")]
    pos = 2
    norm = None
    if lines[pos].startswith("norm:"):
        pairs = [p.split(",") for p in lines[pos][len("norm:"):].split()]
        norm = [(Fraction(float(m)), Fraction(float(r))) for m, r in pairs]
        pos += 1
    layers = []
    for k in range(len(sizes) - 1):
        W = [[float(v) for v in lines[pos + i].split(",")] for i in range(sizes[k + 1])]
        pos += sizes[k + 1]
        b = [float(v) for v in lines[pos].split(",")]
        pos += 1
        layers.append((W, b))
    return ExactNet(layers, norm)


# ---------------------------------------------------------------------------
# properties


class ExactProp:
    def __init__(self, regions, constraint):
        self.regions = regions  # list of [(lo, hi), ...] in floats
        self.constraint = constraint

    def holds(self, ys) -> bool:
        """Exact truth of the constraint at one output vector of Fractions."""
        return _eval(self.constraint, ys)

    def in_region(self, x) -> bool:
        return any(all(lo <= v <= hi for v, (lo, hi) in zip(x, r)) for r in self.regions)


def _eval(node, ys):
    op = node[0]
    if op == "le":
        return ys[node[1]] <= node[2]
    if op == "ge":
        return ys[node[1]] >= node[2]
    if op == "diffle":
        return ys[node[1]] - ys[node[2]] <= node[3]
    others = [j for j in range(len(ys)) if j != node[1]] if op in _RANK else None
    i = node[1] if others is not None else None
    if op == "ismin":
        return all(ys[i] <= ys[j] for j in others)
    if op == "ismax":
        return all(ys[j] <= ys[i] for j in others)
    if op == "notmin":
        return any(ys[j] <= ys[i] for j in others)
    if op == "notmax":
        return any(ys[i] <= ys[j] for j in others)
    if op == "and":
        return all(_eval(a, ys) for a in node[1])
    if op == "or":
        return any(_eval(a, ys) for a in node[1])
    if op == "not":
        return not _eval(node[1], ys)
    raise ValueError(f"unknown constraint node {op!r}")


_RANK = ("ismin", "ismax", "notmin", "notmax")
_ARITY = {"le": "ic", "ge": "ic", "diffle": "iic", "ismin": "i", "ismax": "i", "notmin": "i", "notmax": "i"}


def _parse_constraint(tokens):
    pos = 0

    def expr():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok in ("and", "or", "not"):
            if tokens[pos] != "(":
                raise ValueError(f"expected '(' after {tok!r}")
            pos += 1
            args = []
            while tokens[pos] != ")":
                args.append(expr())
                if tokens[pos] == ",":
                    pos += 1
            pos += 1
            return ("not", args[0]) if tok == "not" else (tok, args)
        out = [tok]
        for kind in _ARITY[tok]:
            v = tokens[pos]
            pos += 1
            out.append(int(float(v)) if kind == "i" else Fraction(float(v)))
        return tuple(out)

    node = expr()
    if pos != len(tokens):
        raise ValueError("trailing constraint tokens")
    return node


def read_prop(path) -> ExactProp:
    """Parse a property file (raw units; `*` takes the domain range)."""
    domain, regions, tokens = [], [], []
    section = None
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            low = line.lower()
            if low.startswith("outputs:"):
                continue
            if low.startswith("units:"):
                if line.split(":", 1)[1].strip().lower() != "raw":
                    raise ValueError("only raw units are generated")
            elif low in ("domain:", "region:", "constraint:"):
                section = low[:-1]
                if section == "region":
                    regions.append([])
            elif section == "domain":
                lo, hi = line.split()
                domain.append((float(lo), float(hi)))
            elif section == "region":
                regions[-1].append(None if line == "*" else tuple(float(v) for v in line.split()))
            else:
                for ch in "(),":
                    line = line.replace(ch, f" {ch} ")
                tokens.extend(line.split())
    regions = [[d if e is None else e for e, d in zip(r, domain)] for r in regions]
    return ExactProp(regions, _parse_constraint(tokens))


# ---------------------------------------------------------------------------
# partitions


def _mid(lo, hi):
    return lo + (hi - lo) / 2.0


def tiles(region, leaves) -> bool:
    """True when the leaf boxes partition `region` exactly.

    Rebuilds the bisection tree top-down: at every node some dimension's
    midpoint must separate all of the node's leaves, and a node with one
    leaf must equal that leaf. This holds exactly when the leaves are
    pairwise interior-disjoint and cover the region with no gap.
    The leaf volumes are also summed in exact arithmetic.
    """
    leaves = [tuple(map(tuple, box)) for box in leaves]
    total = Fraction(0)
    for box in leaves:
        v = Fraction(1)
        for lo, hi in box:
            v *= Fraction(hi) - Fraction(lo)
        total += v
    vol = Fraction(1)
    for lo, hi in region:
        vol *= Fraction(hi) - Fraction(lo)
    if total != vol:
        return False
    stack = [(tuple(map(tuple, region)), leaves)]
    while stack:
        box, items = stack.pop()
        if len(items) == 1:
            if items[0] != box:
                return False
            continue
        if not items:
            return False
        for j, (lo, hi) in enumerate(box):
            m = _mid(lo, hi)
            left = [b for b in items if b[j][1] <= m]
            if not left or len(left) == len(items):
                continue
            right = [b for b in items if b[j][0] >= m]
            if len(left) + len(right) != len(items):
                continue
            lbox = box[:j] + ((lo, m),) + box[j + 1:]
            rbox = box[:j] + ((m, hi),) + box[j + 1:]
            stack.append((lbox, left))
            stack.append((rbox, right))
            break
        else:
            return False
    return True
