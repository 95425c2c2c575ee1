import io
import math
import sys
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relucheck import properties
from relucheck.data import shipped_path
from relucheck.engine import Config, Status, verify
from relucheck.intervals import Box
from relucheck.network import DimensionMismatchError, eval_concrete_batch
from relucheck.propagate import ForwardResult, naive_forward, symbolic_forward
from relucheck.properties import (
    And,
    DiffLE,
    InputSpec,
    IsMax,
    IsMin,
    Not,
    NotMax,
    NotMin,
    Or,
    OutGE,
    OutLE,
    PropertyParseError,
    SoundCheck,
    TriState,
    check_concrete,
    check_sound,
    compile_check,
    desugar,
    parse_property,
)
from relucheck.symbolic import expr_bounds

from conftest import exact_outputs, make_net, random_box, random_net, sample_points


def load_prop(name, m):
    with open(shipped_path(name), "rb") as f:
        return parse_property(f, num_outputs=m)


# ---------------------------------------------------------------------------
# desugaring


def test_desugar_ismin():
    c = desugar(IsMin(4), 5)
    assert isinstance(c, And)
    assert set(c.args) == {DiffLE(4, j, 0.0) for j in range(4)}


def test_desugar_notmin_is_or():
    c = desugar(NotMin(0), 3)
    assert isinstance(c, Or)
    assert set(c.args) == {DiffLE(1, 0, 0.0), DiffLE(2, 0, 0.0)}
    with pytest.raises(TypeError, match="not a rank atom"):
        desugar(OutLE(0, 1.0), 3)


def test_desugar_matches_concrete_truth():
    rng = np.random.default_rng(31)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        y = rng.normal(size=m)
        i = int(rng.integers(0, m))
        assert check_concrete(y, IsMin(i)) == (y[i] <= y.min())
        assert check_concrete(y, IsMax(i)) == (y[i] >= y.max())
        assert check_concrete(y, NotMin(i)) == (y.min() < y[i])


# ---------------------------------------------------------------------------
# concrete and sound evaluation


def test_check_concrete_atoms():
    y = [1.0, 3.0, -2.0]
    assert check_concrete(y, OutLE(0, 1.0))
    assert not check_concrete(y, OutLE(1, 2.9))
    assert check_concrete(y, OutGE(1, 3.0))
    assert check_concrete(y, DiffLE(2, 1, -5.0))
    assert check_concrete(y, IsMin(2)) and check_concrete(y, IsMax(1))
    assert check_concrete(y, Not(IsMin(0)))
    assert check_concrete(y, Or((OutLE(1, 0.0), And((IsMax(1), NotMin(1))))))


def test_check_concrete_tie_counts_as_min():
    assert check_concrete([2.0, 2.0], IsMin(0))
    assert check_concrete([2.0, 2.0], IsMin(1))


def test_check_sound_demo_net(demo_net, demo_box):
    fr = symbolic_forward(demo_net, demo_box)
    assert check_sound(fr, OutLE(0, 20.0)) is TriState.HOLDS
    assert check_sound(fr, OutLE(0, 15.0)) is TriState.MAY_VIOLATE
    # 5.99 rather than the exact bound 6: outward rounding keeps the
    # computed lower bound a few ULPs below it
    assert check_sound(fr, OutGE(0, 5.99)) is TriState.HOLDS
    # negation of a definitely-false atom is definitely true
    assert check_sound(fr, Not(OutGE(0, 23.0))) is TriState.HOLDS
    assert check_sound(fr, Not(OutLE(0, 20.0))) is TriState.MAY_VIOLATE


def test_check_sound_naive_vs_symbolic(demo_net, demo_box):
    # [6,16] proves le 18, the naive [0,22] cannot
    c = OutLE(0, 18.0)
    nai = naive_forward(demo_net, demo_box)
    sym = symbolic_forward(demo_net, demo_box)
    assert check_sound(nai, c) is TriState.MAY_VIOLATE
    assert check_sound(sym, c) is TriState.HOLDS


def test_check_sound_diffle_uses_correlation():
    # y0 = x, y1 = x: y0 - y1 == 0 everywhere, but the per-output
    # interval difference is [-1, 1]
    from conftest import make_net

    net = make_net([np.eye(2), np.array([[1.0, 0.0], [1.0, 0.0]])])
    box = Box([0.5, 0.5], [1.5, 1.5])
    fr = symbolic_forward(net, box)
    assert check_sound(fr, DiffLE(0, 1, 1e-12)) is TriState.HOLDS
    nai = naive_forward(net, box)
    assert check_sound(nai, DiffLE(0, 1, 1e-12)) is TriState.MAY_VIOLATE


def test_check_sound_or_and():
    from conftest import make_net

    net = make_net([np.eye(2)])
    box = Box([1.0, 5.0], [2.0, 6.0])
    fr = symbolic_forward(net, box)
    assert check_sound(fr, Or((OutLE(0, 0.0), OutLE(0, 3.0)))) is TriState.HOLDS
    assert check_sound(fr, And((OutLE(0, 3.0), OutGE(1, 4.9)))) is TriState.HOLDS
    assert check_sound(fr, And((OutLE(0, 3.0), OutGE(1, 5.5)))) is TriState.MAY_VIOLATE


def test_check_sound_never_false_positive_fuzz():
    """Holds must imply the constraint is true, in exact arithmetic, at
    every sampled point. The negated (strict) `le` and `diffle` literals
    take thresholds from the sampled values of their expressions: below
    all of them, and at their 10% quantile, where Holds would be wrong."""
    rng = np.random.default_rng(41)
    for _ in range(30):
        net = random_net(rng, m=3)
        box = random_box(rng, net.input_dim)
        fr = symbolic_forward(net, box)
        cs = [
            OutLE(0, float(rng.normal())),
            OutGE(1, float(rng.normal())),
            DiffLE(0, 2, float(rng.normal(scale=0.5))),
            IsMin(int(rng.integers(0, 3))),
            Not(IsMax(int(rng.integers(0, 3)))),
            Or((OutLE(0, 0.0), NotMin(1))),
        ]
        pts = sample_points(rng, box, 100)
        ys = eval_concrete_batch(net, pts)
        y0, gap = ys[:, 0], ys[:, 2] - ys[:, 0]
        for v, negated in ((y0, lambda c: Not(OutLE(0, c))), (gap, lambda c: Not(DiffLE(2, 0, c)))):
            levels = (v.min() - np.ptp(v) / 2, v.min() - np.ptp(v) / 10, np.quantile(v, 0.1))
            cs += [negated(float(c)) for c in levels]
        exact = None
        for c in cs:
            if check_sound(fr, c) is TriState.HOLDS:
                exact = exact or [exact_outputs(net, x) for x in pts]
                assert all(_exact_truth(c, y) for y in exact), c


# ---------------------------------------------------------------------------
# monotonicity-reduction eligibility

_TWO = (OutLE(0, 1.0), OutGE(1, 0.0))


@pytest.mark.parametrize(
    "c, or_free",
    [
        (And(_TWO), True),
        (Or(_TWO), False),
        (Not(And(_TWO)), False),
        (Not(Or(_TWO)), True),
        (Not(Not(Or(_TWO))), False),
        (desugar(NotMax(0), 3), False),
        (desugar(IsMin(0), 3), True),
        (Not(desugar(NotMax(0), 3)), True),
        (And(()), True),
        (desugar(IsMax(0), 1), True),
    ],
)
def test_sound_check_or_free(c, or_free):
    assert SoundCheck(c, 3).or_free is or_free


def test_monotone_dims_ge_and_diffle():
    # d(y_0)/dx: [1, 2], [-1, 1], [0.5, 0.5]; d(y_1)/dx: [0.5, 3], [2, 3], [-2, -1]
    J = np.array([[[1.0, -1.0, 0.5], [0.5, 2.0, -2.0]], [[2.0, 1.0, 0.5], [3.0, 3.0, -1.0]]])
    wide = np.array([True, True, True])
    cases = [
        (OutGE(0, 0.0), [True, False, True]),
        # y_1 - y_0: [-1.5, 2], [1, 4], [-2.5, -1.5]
        (DiffLE(1, 0, 0.0), [False, True, True]),
        (And((OutGE(0, 0.0), DiffLE(1, 0, 0.0))), [False, False, True]),
        # the row of y_0 - y_0 is zero: never sign-definite
        (DiffLE(0, 0, 0.0), [False, False, False]),
    ]
    for c, want in cases:
        check = SoundCheck(c, 2)
        margin = np.zeros((len(check.t), 3))
        assert check.monotone_dims(J, wide, margin).tolist() == want
        assert check.monotone_dims(J, np.array([True, True, False]), margin).tolist() == want[:2] + [False]
    # a sign counts only beyond the margin: d(-y_0)/dx is [-2, -1],
    # [-1, 1] and [-0.5, -0.5], so a margin of 0.5 keeps dim 0 alone
    check = SoundCheck(OutGE(0, 0.0), 2)
    assert check.monotone_dims(J, wide, np.full((1, 3), 0.5)).tolist() == [True, False, False]


def test_a_compiled_check_is_read_only():
    # one check serves every run of its constraint
    check = SoundCheck(And((OutLE(0, 1.0), Not(DiffLE(1, 0, -1.0)))), 2)
    check.evaluate(symbolic_forward(make_net([np.eye(2)]), Box([0, 0], [1, 1])))
    for a in (check.A, check.t, check.bound, *check._split):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.fixture
def count_compiles(monkeypatch):
    """The list of (constraint, m) that SoundCheck compiles, starting from
    an empty cache."""
    compiles = []
    init = SoundCheck.__init__

    def counting(self, c, m):
        compiles.append((c, m))
        init(self, c, m)

    monkeypatch.setattr(SoundCheck, "__init__", counting)
    properties._compile_cached.cache_clear()
    yield compiles
    properties._compile_cached.cache_clear()


def test_equal_constraints_compile_once(count_compiles):
    # two parses of one file give equal, distinct constraints; their runs
    # on two nets with one output count share one compiled check
    text = "domain:\n0 1\n0 1\nregion:\n*\n*\nconstraint:\nand(le 0 2.5, diffle 1 0 1.5)\n"
    first, second = parse_property(text), parse_property(text)
    assert first[1] == second[1] and first[1] is not second[1]
    # y = x, then y = (3 x_0, x_1), which exceeds 2.5 in y_0
    nets = [make_net([np.eye(2)]), make_net([[[3.0, 0.0], [0.0, 1.0]]])]
    statuses = [verify(net, spec).status for net in nets for spec in (first, second)]
    assert statuses == [Status.SECURE] * 2 + [Status.INSECURE] * 2
    assert count_compiles == [(first[1], 2)]
    assert compile_check(second[1], 2) is compile_check(first[1], 2)


def test_a_constraint_compiles_once_per_output_count(count_compiles):
    # `ismax 0` holds on the 2-output net, y_0 = x_0 + 2 >= y_1 = x_1, but
    # not on the 3-output one, whose y_2 = x_0 + x_1 + 2.5 exceeds y_0: a
    # check compiled over 2 outputs would prove it there
    c = IsMax(0)
    spec = (InputSpec((Box([0, 0], [1, 1]),)), c)
    nets = {
        2: make_net([np.eye(2)], [[2.0, 0.0]]),
        3: make_net([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]], [[2.0, 0.0, 2.5]]),
    }
    want = {2: Status.SECURE, 3: Status.INSECURE}
    for m in (2, 3, 2, 3):
        assert verify(nets[m], spec).status is want[m]
    assert count_compiles == [(c, 2), (c, 3)]
    for m in (2, 3):
        assert described(compile_check(c, m)) == compiled(c, m)


def test_an_unhashable_constraint_is_compiled_per_run(demo_net, count_compiles):
    # a threshold held in a numpy array: the constraint cannot be a cache
    # key, and each run compiles it for itself
    spec = (InputSpec((Box([4, 1], [6, 5]),)), OutLE(0, np.array(15.0)))
    for _ in range(2):
        v = verify(demo_net, spec)
        assert v.status is Status.INSECURE
        assert v.counterexample[0] + 2 * v.counterexample[1] > 15.0
    assert len(count_compiles) == 2


def test_literal_rows():
    c = And((OutLE(0, 1.0), OutGE(1, 2.0), DiffLE(0, 2, 3.0), Not(OutLE(2, 4.0)), Not(DiffLE(1, 0, -1.0))))
    check = SoundCheck(c, 3)
    assert check.A.tolist() == [[1, 0, 0], [0, -1, 0], [1, 0, -1], [0, 0, -1], [1, -1, 0]]
    assert check.t.tolist() == [1.0, -2.0, 3.0, -4.0, 1.0]
    # a negated literal is strict: its bound is the float below t
    assert check.bound.tolist() == [1.0, -2.0, 3.0, np.nextafter(-4.0, -np.inf), np.nextafter(1.0, -np.inf)]
    assert SoundCheck(And(()), 2).A.shape == (0, 2)


@pytest.mark.parametrize(
    "literal",
    [OutLE(0, 0.5), OutGE(1, 0.5), DiffLE(0, 1, 0.25), Not(OutLE(0, 0.5)), Not(OutGE(1, 0.5)), Not(DiffLE(1, 0, 0.0))],
    ids=repr,
)
def test_literal_row_is_violated_where_the_constraint_is(literal):
    # a literal is violated where a . y - t > 0, or >= 0 under a Not,
    # that is where a . y > bound; outputs on a grid of quarters hit every
    # threshold exactly
    check = SoundCheck(literal, 2)
    (a,), (t,), (bound,) = check.A, check.t, check.bound
    negated = bound < t
    assert negated == isinstance(literal, Not)
    y = np.array([[u, v] for u in np.arange(-1, 2, 0.25) for v in np.arange(-1, 2, 0.25)])
    margin = y @ a - t
    violated = margin >= 0.0 if negated else margin > 0.0
    assert (~check_concrete(y, check)).tolist() == violated.tolist()
    assert (y @ a > bound).tolist() == violated.tolist()


def _exact_truth(c, y) -> bool:
    """The constraint at outputs y (floats or Fractions), every atom
    compared in exact rational arithmetic and rank atoms read from their
    definitions."""
    v = [Fraction(a) for a in y]
    others = lambda i: [v[j] for j in range(len(v)) if j != i]
    if isinstance(c, OutLE):
        return v[c.i] <= Fraction(c.c)
    if isinstance(c, OutGE):
        return v[c.i] >= Fraction(c.c)
    if isinstance(c, DiffLE):
        return v[c.i] - v[c.j] <= Fraction(c.c)
    if isinstance(c, IsMin):
        return all(v[c.i] <= w for w in others(c.i))
    if isinstance(c, IsMax):
        return all(w <= v[c.i] for w in others(c.i))
    if isinstance(c, NotMin):
        return any(w <= v[c.i] for w in others(c.i))
    if isinstance(c, NotMax):
        return any(v[c.i] <= w for w in others(c.i))
    if isinstance(c, Not):
        return not _exact_truth(c.arg, y)
    combine = all if isinstance(c, And) else any
    return combine(_exact_truth(a, y) for a in c.args)


def _random_constraint(rng, m, values, depth, general_diffle):
    """A random tree of every atom kind (general `diffle` thresholds only
    where `general_diffle`) under Not, And and Or; thresholds from `values`."""
    if depth == 0 or rng.random() < 0.3:
        i, j = (int(k) for k in rng.integers(0, m, size=2))
        c = float(rng.choice(values))
        kinds = [OutLE(i, c), OutGE(i, c), IsMin(i), IsMax(i), NotMin(i), NotMax(i), DiffLE(i, j, 0.0)]
        if general_diffle:
            kinds.append(DiffLE(i, j, c))
        return kinds[rng.integers(len(kinds))]
    kind = rng.integers(3)
    if kind == 0:
        return Not(_random_constraint(rng, m, values, depth - 1, general_diffle))
    args = tuple(_random_constraint(rng, m, values, depth - 1, general_diffle) for _ in range(rng.integers(1, 4)))
    return And(args) if kind == 1 else Or(args)


def _atoms(c):
    if isinstance(c, (And, Or)):
        return [a for arg in c.args for a in _atoms(arg)]
    return _atoms(c.arg) if isinstance(c, Not) else [c]


@pytest.mark.parametrize("seed", range(6))
def test_check_concrete_matches_exact_atoms(seed):
    rng = np.random.default_rng(seed)
    m, ties = 3, 0
    # outputs and thresholds on a grid of quarters, where every y_i - y_j
    # is exact and many atoms sit exactly at their threshold; then random
    # doubles of many magnitudes, thresholds drawn from the outputs
    # themselves, and no general diffle, whose float difference may round
    grid = rng.integers(-6, 7, size=(40, m)) / 4.0
    wide = rng.standard_normal((40, m)) * 10.0 ** rng.integers(-8, 9, size=(40, 1))
    for ys, general in ((grid, True), (wide, False)):
        values = np.unique(np.concatenate((ys.ravel(), np.arange(-6, 7) / 4.0)))
        for _ in range(25):
            c = _random_constraint(rng, m, values, 3, general)
            want = [_exact_truth(c, y) for y in ys]
            for compiled in (c, SoundCheck(c, m)):
                assert check_concrete(ys, compiled).tolist() == want, c
                assert [check_concrete(y, compiled) for y in ys] == want, c
            ties += sum(
                y[a.i] == a.c for a in _atoms(c) if isinstance(a, (OutLE, OutGE)) for y in ys
            )
    assert ties > 0


@st.composite
def _outputs_and_constraint(draw):
    """m = 2-5, a batch of output vectors (n, m) and a constraint tree
    over them: every atom kind and the empty And and Or under Not, And and
    Or. Outputs and thresholds are mostly quarters in [-2, 2], so outputs
    tie and literals sit exactly at their thresholds."""
    m = draw(st.integers(2, 5))
    value = st.one_of(
        st.integers(-8, 8).map(lambda k: k / 4.0),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    ys = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=1, max_size=6))
    i = st.integers(0, m - 1)
    atoms = st.one_of(
        st.builds(OutLE, i, value),
        st.builds(OutGE, i, value),
        st.builds(DiffLE, i, i, value),
        st.builds(DiffLE, i, i, st.just(0.0)),
        st.builds(IsMin, i),
        st.builds(IsMax, i),
        st.builds(NotMin, i),
        st.builds(NotMax, i),
        st.sampled_from([And(()), Or(())]),
    )
    args = lambda kids: st.lists(kids, min_size=1, max_size=3).map(tuple)
    tree = st.recursive(
        atoms,
        lambda kids: st.one_of(st.builds(Not, kids), st.builds(And, args(kids)), st.builds(Or, args(kids))),
        max_leaves=8,
    )
    return np.array(ys), draw(tree)


@given(_outputs_and_constraint())
@settings(max_examples=200, deadline=None)
def test_one_tree_gives_the_truth_and_the_margin(case):
    # the tree that decides a constraint at a point gives, on the literals'
    # margins, a margin that is >= 0 exactly where the constraint holds;
    # on the margins t - A y it is set by its active literal
    ys, c = case
    check = SoundCheck(c, ys.shape[1])
    holds = check_concrete(ys, check)
    assert (check.tree(check.bound - ys @ check.A.T) >= 0.0).tolist() == holds.tolist()
    if not len(check.t):
        return
    r, k = check.active(ys)
    margins = check.t - ys @ check.A.T
    # an empty And or Or sets an infinite margin, which no literal has
    set_by = np.flatnonzero(np.isfinite(r))
    assert margins[set_by, k[set_by]].tolist() == r[set_by].tolist()
    assert all((margins[p, : k[p]] != r[p]).all() for p in set_by)
    # a point that violates the constraint has r <= 0
    assert not (~holds & (r > 0.0)).any()


def _kleene(c, lo, hi, m):
    """Kleene's value of the constraint over the box of outputs [lo, hi]:
    True, False or None (unknown). Each atom is decided from the exact
    range of its expression over the box, in rational arithmetic."""
    lo, hi = [Fraction(float(a)) for a in lo], [Fraction(float(a)) for a in hi]

    def at_most(low, high, k):
        return True if high <= k else (False if low > k else None)

    if isinstance(c, OutLE):
        return at_most(lo[c.i], hi[c.i], Fraction(c.c))
    if isinstance(c, OutGE):
        return at_most(-hi[c.i], -lo[c.i], -Fraction(c.c))
    if isinstance(c, DiffLE):
        if c.i == c.j:
            return at_most(0, 0, Fraction(c.c))
        return at_most(lo[c.i] - hi[c.j], hi[c.i] - lo[c.j], Fraction(c.c))
    if isinstance(c, (IsMin, IsMax, NotMin, NotMax)):
        return _kleene(desugar(c, m), lo, hi, m)
    if isinstance(c, Not):
        v = _kleene(c.arg, lo, hi, m)
        return None if v is None else not v
    vals = [_kleene(a, lo, hi, m) for a in c.args]
    decided, other = (False, True) if isinstance(c, And) else (True, False)
    if decided in vals:
        return decided
    return other if all(v is other for v in vals) else None


@pytest.mark.parametrize("seed", range(4))
def test_box_check_is_kleene_definitely_true(seed):
    # naive bounds on a grid of quarters, where every bound of a literal is
    # exact and many sit exactly at their threshold
    rng = np.random.default_rng(seed)
    m, n = 3, 12
    lo = rng.integers(-6, 7, size=(n, m)) / 4.0
    hi = lo + rng.integers(0, 5, size=(n, m)) / 4.0
    stack = ForwardResult(lo, hi)
    values = np.arange(-8, 9) / 4.0
    for _ in range(60):
        c = _random_constraint(rng, m, values, 3, True)
        want = [_kleene(c, lo[b], hi[b], m) is True for b in range(n)]
        check = SoundCheck(c, m)
        assert check_sound(stack, check).tolist() == want, c
        holds = [check_sound(ForwardResult(lo[b], hi[b]), c) is TriState.HOLDS for b in range(n)]
        assert holds == want, c


def test_negated_literal_is_strict():
    # Not(le 0 c) is proved only where the lower bound of y_0 exceeds c
    c = 0.75
    for lo0, holds in ((c, False), (np.nextafter(c, np.inf), True)):
        fr = ForwardResult(np.array([lo0, 0.0]), np.array([2.0, 1.0]))
        assert (check_sound(fr, Not(OutLE(0, c))) is TriState.HOLDS) is holds
    # symbolic: the lower bound of y_0 is the one its rows give, through
    # the upper bound of -y_0
    fr = symbolic_forward(make_net([np.eye(2)]), Box([c, 0.0], [2.0, 1.0]))
    lo0 = -expr_bounds(0.0 - fr.rows[0, :1], fr.operand, fr.err[:1])[1][0]
    assert lo0 < c
    assert check_sound(fr, Not(OutLE(0, lo0))) is TriState.MAY_VIOLATE
    assert check_sound(fr, Not(OutLE(0, np.nextafter(lo0, -np.inf)))) is TriState.HOLDS


def test_naive_difference_bound_is_rounded_up():
    # y = (1, -1e-17) lies in the box, and y_0 - y_1 = 1 + 1e-17 > 1
    # exactly, though its float difference is 1: the naive pass moves the
    # outputs' ends out by their error terms, which cover that rounding
    fr = naive_forward(make_net([np.eye(2)]), Box([0.0, -1e-17], [1.0, 0.0]))
    assert check_sound(fr, DiffLE(0, 1, 1.0)) is TriState.MAY_VIOLATE
    # over bounds given without their terms, the difference rounds to
    # nearest
    fr = ForwardResult(np.array([0.0, -1e-17]), np.array([1.0, 0.0]))
    assert check_sound(fr, DiffLE(0, 1, 1.0)) is TriState.HOLDS


def _nearest_float(x: Fraction) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -sys.float_info.max


def test_naive_difference_bound_is_the_nearest_float_to_the_exact_one():
    # over naive bounds, the upper bound of y_0 - y_1 is hi_0 - lo_1,
    # rounded to nearest: the ends of a naive pass carry the error term
    # that covers that rounding. A check of diffle 0 1 c holds exactly
    # where that bound is <= c
    rng = np.random.default_rng(5)
    wide = rng.standard_normal((300, 2)) * 2.0 ** rng.integers(-60, 61, size=(300, 2))
    grid = rng.integers(-8, 9, size=(50, 2)) / 4.0
    rounded = 0
    for hi0, lo1 in wide.tolist() + grid.tolist() + [[1e308, -1e308], [-1e308, 1e308]]:
        exact = Fraction(hi0) - Fraction(lo1)
        up = _nearest_float(exact)
        fr = ForwardResult(np.array([hi0, lo1]), np.array([hi0, lo1]))
        if math.isinf(up):
            # an overflowing bound decides nothing, and raises no
            # RuntimeWarning (an error under the test configuration)
            assert check_sound(fr, DiffLE(0, 1, sys.float_info.max)) is TriState.MAY_VIOLATE
            continue
        rounded += Fraction(up) != exact
        assert check_sound(fr, DiffLE(0, 1, up)) is TriState.HOLDS
        below = math.nextafter(up, -math.inf)
        if math.isfinite(below):
            assert check_sound(fr, DiffLE(0, 1, below)) is TriState.MAY_VIOLATE
    assert 0 < rounded < 300


@pytest.mark.parametrize(
    "c",
    [OutLE(-1, 20.0), OutGE(1, 20.0), DiffLE(0, -1, 0.0), DiffLE(2, 0, 0.0), IsMin(1), Not(OutLE(1.0, 0.0))],
    ids=repr,
)
def test_sound_check_rejects_an_output_index_out_of_range(c):
    with pytest.raises(DimensionMismatchError):
        SoundCheck(c, 1)


@pytest.mark.parametrize("c", [OutLE(0, np.inf), OutGE(0, -np.inf), Not(DiffLE(0, 0, np.nan))], ids=repr)
def test_sound_check_rejects_a_threshold_that_is_not_finite(c):
    with pytest.raises(ValueError, match="not finite"):
        SoundCheck(c, 1)


def test_sound_check_rejects_an_unknown_node():
    with pytest.raises(TypeError, match="unknown constraint node"):
        SoundCheck(And((OutLE(0, 1.0), "le 0 1")), 1)


def test_check_concrete_is_a_plain_bool_for_one_vector():
    assert check_concrete(np.array([1.0, 2.0]), OutLE(0, 1.0)) is True
    assert check_concrete(np.array([1.0, 2.0]), Not(OutLE(0, 1.0))) is False
    assert check_concrete(np.array([1.0, 2.0]), And(())) is True
    assert check_concrete(np.array([1.0, 2.0]), Or(())) is False
    assert check_concrete(np.zeros((4, 2)), Or(())).tolist() == [False] * 4


# ---------------------------------------------------------------------------
# parsing


def test_parse_simple_property():
    text = """
    outputs: 1
    domain:
    4 6
    1 5
    region:
    *
    *
    constraint:
    le 0 20
    """
    spec, c = parse_property(text)
    assert spec.units == "raw"
    (box,) = spec.regions
    assert box.lo.tolist() == [4.0, 1.0]
    assert box.hi.tolist() == [6.0, 5.0]
    assert c == OutLE(0, 20.0)


def test_parse_wildcard_uses_domain():
    text = "domain:\n-1 1\n0 9\nregion:\n*\n0.5 0.5\nconstraint:\nge 0 0\n"
    spec, _ = parse_property(text)
    assert spec.regions[0].lo[0] == -1.0 and spec.regions[0].hi[0] == 1.0
    assert spec.regions[0].lo[1] == 0.5


def compiled(c, m):
    """What a SoundCheck compiles c to over m outputs: its or_free flag,
    its literal table (rows of A, t and bound) and the tree's truth on
    every assignment of the literals."""
    return described(SoundCheck(c, m))


def described(check):
    """A compiled check's or_free flag, literal table and truth table."""
    table = np.column_stack((check.A, check.t, check.bound))
    k = len(table)
    assignments = (np.arange(2**k)[:, np.newaxis] >> np.arange(k) & 1).astype(bool)
    return check.or_free, table.tolist(), check.tree(assignments).tolist()


def test_parse_multiple_regions():
    with open(shipped_path("phi6.prop"), "rb") as f:
        spec, c = parse_property(f, num_outputs=5)
    assert len(spec.regions) == 2
    assert spec.regions[0].lo[1] == pytest.approx(0.7)
    assert spec.regions[1].hi[1] == pytest.approx(-0.7)
    # parsed as written, compiled as its desugaring
    assert c == IsMin(0)
    assert compiled(c, 5) == compiled(desugar(IsMin(0), 5), 5)


def test_parse_desugars_rank_atoms():
    # phi5 is `ismin 4`: the check compiles it to the And of y_4 - y_j <= 0
    with open(shipped_path("phi5.prop"), "rb") as f:
        _, c = parse_property(f, num_outputs=5)
    or_free, table, truth = compiled(c, 5)
    assert or_free and truth == [False] * 15 + [True]
    rows = {tuple(row) for row in table}
    assert rows == {tuple(np.eye(5)[4] - np.eye(5)[j]) + (0.0, 0.0) for j in range(4)}
    assert len(table) == 4


def test_rank_atoms_are_desugared_over_the_network_outputs():
    # without an output count, `ismax 0` reads output 0 alone; it must
    # still mean y_0 >= y_1 on a net with two outputs
    text = "domain:\n0 1\n0 1\nregion:\n*\n*\nconstraint:\nismax 0\n"
    spec = parse_property(text)
    assert spec[1] == IsMax(0)
    net = make_net([np.eye(2), np.eye(2)])
    assert not check_concrete(eval_concrete_batch(net, [[0.2, 0.9]])[0], SoundCheck(spec[1], 2))
    for mode in ("symbolic", "naive"):
        v = verify(net, spec, Config(mode=mode))
        assert v.status is Status.INSECURE
        assert not check_concrete(eval_concrete_batch(net, [v.counterexample])[0], SoundCheck(spec[1], 2))


def test_parse_nested_combinators():
    text = (
        "outputs: 3\ndomain:\n0 1\nregion:\n*\nconstraint:\n"
        "and(or(le 0 1, not(ge 1 2)), diffle 0 2 0.5)\n"
    )
    _, c = parse_property(text)
    assert c == And((Or((OutLE(0, 1.0), Not(OutGE(1, 2.0)))), DiffLE(0, 2, 0.5)))


def test_parse_from_stream_and_bytes():
    text = "domain:\n0 1\nregion:\n*\nconstraint:\nle 0 5\n"
    for src in (text, text.encode(), io.StringIO(text), io.BytesIO(text.encode())):
        spec, c = parse_property(src)
        assert c == OutLE(0, 5.0)


def test_parse_errors():
    good = "domain:\n0 1\nregion:\n*\nconstraint:\nle 0 5\n"
    bad = [
        "region:\n*\nconstraint:\nle 0 5\n",  # no domain
        "domain:\n0 1\nconstraint:\nle 0 5\n",  # no region
        "domain:\n0 1\nregion:\n*\n",  # no constraint
        "domain:\n0 1\nregion:\n*\n*\nconstraint:\nle 0 5\n",  # extra region line
        "domain:\n0 1\nregion:\n2 1\nconstraint:\nle 0 5\n",  # empty range
        "domain:\n0 1\nregion:\n*\nconstraint:\nle 0\n",  # missing arg
        "domain:\n0 1\nregion:\n*\nconstraint:\nfoo 0 1\n",  # unknown atom
        "domain:\n0 1\nregion:\n*\nconstraint:\nle 0 5 7\n",  # trailing tokens
        "le 0 5\n",  # content outside sections
        "units: parsecs\ndomain:\n0 1\nregion:\n*\nconstraint:\nle 0 5\n",
        "outputs: one\ndomain:\n0 1\nregion:\n*\nconstraint:\nle 0 5\n",  # non-integer count
        "domain:\n0 six\nregion:\n*\nconstraint:\nle 0 5\n",  # non-numeric domain
        "domain:\n0 1\nregion:\n0 x\nconstraint:\nle 0 5\n",  # non-numeric region
        "domain:\n0 inf\nregion:\n*\nconstraint:\nle 0 5\n",  # non-finite bound
        "domain:\n0 1\nregion:\n*\nconstraint:\nle inf 3\n",  # non-finite index
        "domain:\n0 1\nregion:\n*\nconstraint:\nle 1e400 3\n",  # index overflows to inf
        "domain:\n0 1\nregion:\n*\nconstraint:\nle nan 3\n",  # NaN index
        "domain:\n0 1\nregion:\n*\nconstraint:\nle 0 nan\n",  # NaN threshold
        "domain:\n0 1\nregion:\n*\nconstraint:\nge 0 -inf\n",  # non-finite threshold
        "domain:\n0 1\nregion:\n*\nconstraint:\ndiffle 0 1 1e400\n",  # overflowing threshold
        "outputs: 0\ndomain:\n0 1\nregion:\n*\nconstraint:\nle 0 5\n",  # no outputs
        "outputs: -1\ndomain:\n0 1\nregion:\n*\nconstraint:\nle 0 5\n",  # negative count
        b"\xff" + good.encode(),  # not UTF-8
    ]
    parse_property(good)
    parse_property("outputs: 2\n" + good, num_outputs=2)
    for text in bad:
        with pytest.raises(PropertyParseError):
            parse_property(text)
        # a network's output count does not override a bad declared one
        with pytest.raises(PropertyParseError):
            parse_property(text, num_outputs=1)
    # nor a declared count that disagrees with it
    for declared in (1, 3):
        with pytest.raises(PropertyParseError):
            parse_property(f"outputs: {declared}\n" + good, num_outputs=2)


def test_parse_rejects_out_of_range_index():
    text = "domain:\n0 1\nregion:\n*\nconstraint:\nle 3 5\n"
    with pytest.raises(PropertyParseError):
        parse_property(text, num_outputs=2)


def test_input_spec_validation():
    with pytest.raises(PropertyParseError):
        InputSpec(())
    with pytest.raises(PropertyParseError):
        InputSpec((Box([0], [1]),), units="furlongs")
    with pytest.raises(PropertyParseError):
        InputSpec((Box([0], [1]), Box([0, 0], [1, 1])))


def test_all_shipped_properties_parse():
    shipped = (resources.files("relucheck") / "props").iterdir()
    props = sorted(p.name for p in shipped if p.name.endswith(".prop"))
    assert len(props) >= 20
    for name in props:
        with open(shipped_path(name), "rb") as f:
            spec, c = parse_property(f)
        assert spec.dim in (2, 5)
        assert c is not None


def test_shipped_acas_domains_consistent():
    names = [f"phi{k}.prop" for k in range(1, 16)] + ["s1.prop", "s2.prop", "s3.prop"]
    for name in names:
        spec, _ = load_prop(name, 5)
        assert spec.dim == 5
        for box in spec.regions:
            assert box.lo[0] >= 0.0 and box.hi[0] <= 62000.0
            assert box.hi[3] <= 1200.0 and box.hi[4] <= 1200.0
