import io

import numpy as np
import pytest

from relucheck.data import shipped_names, shipped_path
from relucheck.intervals import Box
from relucheck.propagate import naive_forward, symbolic_forward
from relucheck.properties import (
    And,
    DiffLE,
    InputSpec,
    IsMax,
    IsMin,
    Not,
    NotMin,
    Or,
    OutGE,
    OutLE,
    PropertyParseError,
    RobustnessSpec,
    TriState,
    check_concrete,
    check_sound,
    desugar,
    parse_property,
    robustness_to_property,
)

from conftest import random_box, random_net, sample_points


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


def test_desugar_recurses():
    c = desugar(Not(And((IsMax(1), OutLE(0, 2.0)))), 2)
    assert c == Not(And((And((DiffLE(0, 1, 0.0),)), OutLE(0, 2.0))))


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
    assert check_sound(fr, OutLE(0, 20.0), demo_box) is TriState.HOLDS
    assert check_sound(fr, OutLE(0, 15.0), demo_box) is TriState.MAY_VIOLATE
    # 5.99 rather than the exact bound 6: outward rounding keeps the
    # computed lower bound a few ULPs below it
    assert check_sound(fr, OutGE(0, 5.99), demo_box) is TriState.HOLDS
    # negation of a definitely-false atom is definitely true
    assert check_sound(fr, Not(OutGE(0, 23.0)), demo_box) is TriState.HOLDS
    assert check_sound(fr, Not(OutLE(0, 20.0)), demo_box) is TriState.MAY_VIOLATE


def test_check_sound_naive_vs_symbolic(demo_net, demo_box):
    # [6,16] proves le 18, the naive [0,22] cannot
    c = OutLE(0, 18.0)
    nai = naive_forward(demo_net, demo_box)
    sym = symbolic_forward(demo_net, demo_box)
    assert check_sound(nai, c, demo_box) is TriState.MAY_VIOLATE
    assert check_sound(sym, c, demo_box) is TriState.HOLDS


def test_check_sound_diffle_uses_correlation():
    # y0 = x, y1 = x: y0 - y1 == 0 everywhere, but the per-output
    # interval difference is [-1, 1]
    from conftest import make_net

    net = make_net([np.eye(2), np.array([[1.0, 0.0], [1.0, 0.0]])])
    box = Box.from_arrays([0.5, 0.5], [1.5, 1.5])
    fr = symbolic_forward(net, box)
    assert check_sound(fr, DiffLE(0, 1, 1e-12), box) is TriState.HOLDS
    nai = naive_forward(net, box)
    assert check_sound(nai, DiffLE(0, 1, 1e-12), box) is TriState.MAY_VIOLATE


def test_check_sound_or_and():
    from conftest import make_net

    net = make_net([np.eye(2)])
    box = Box.from_arrays([1.0, 5.0], [2.0, 6.0])
    fr = symbolic_forward(net, box)
    assert check_sound(fr, Or((OutLE(0, 0.0), OutLE(0, 3.0))), box) is TriState.HOLDS
    assert check_sound(fr, And((OutLE(0, 3.0), OutGE(1, 4.9))), box) is TriState.HOLDS
    assert check_sound(fr, And((OutLE(0, 3.0), OutGE(1, 5.5))), box) is TriState.MAY_VIOLATE


def test_check_sound_never_false_positive_fuzz():
    """Holds must imply the constraint is true at every sampled point."""
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
        from relucheck.network import eval_concrete_batch

        ys = eval_concrete_batch(net, pts)
        for c in cs:
            if check_sound(fr, c, box) is TriState.HOLDS:
                for y in ys:
                    assert check_concrete(y, c)


# ---------------------------------------------------------------------------
# robustness


def test_robustness_ball():
    spec, c = robustness_to_property(RobustnessSpec([1.0, 2.0], 0.5, label=1))
    (box,) = spec.regions
    assert box.lo.tolist() == [0.5, 1.5]
    assert box.hi.tolist() == [1.5, 2.5]
    assert c == IsMax(1)


def test_robustness_ball_clamped():
    dom = Box.from_arrays([0.0, 0.0], [1.0, 1.0])
    spec, _ = robustness_to_property(RobustnessSpec([0.1, 0.9], 0.3, label=0), dom)
    (box,) = spec.regions
    np.testing.assert_allclose(box.lo, [0.0, 0.6])
    np.testing.assert_allclose(box.hi, [0.4, 1.0])


def test_robustness_rejects_negative_radius():
    with pytest.raises(ValueError):
        RobustnessSpec([0.0], -1.0, 0)


def test_robustness_domain_dim_mismatch():
    with pytest.raises(ValueError):
        robustness_to_property(RobustnessSpec([0.0], 0.1, 0), Box.from_arrays([0, 0], [1, 1]))


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


def test_parse_multiple_regions():
    with open(shipped_path("phi6.prop"), "rb") as f:
        spec, c = parse_property(f, num_outputs=5)
    assert len(spec.regions) == 2
    assert spec.regions[0].lo[1] == pytest.approx(0.7)
    assert spec.regions[1].hi[1] == pytest.approx(-0.7)
    assert c == desugar(IsMin(0), 5)


def test_parse_desugars_rank_atoms():
    with open(shipped_path("phi5.prop"), "rb") as f:
        _, c = parse_property(f, num_outputs=5)
    assert isinstance(c, And)
    assert set(c.args) == {DiffLE(4, j, 0.0) for j in range(4)}


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
    ]
    parse_property(good)
    for text in bad:
        with pytest.raises(PropertyParseError):
            parse_property(text)


def test_parse_rejects_out_of_range_index():
    text = "domain:\n0 1\nregion:\n*\nconstraint:\nle 3 5\n"
    with pytest.raises(PropertyParseError):
        parse_property(text, num_outputs=2)


def test_input_spec_validation():
    with pytest.raises(PropertyParseError):
        InputSpec(())
    with pytest.raises(PropertyParseError):
        InputSpec((Box.from_arrays([0], [1]),), units="furlongs")
    with pytest.raises(PropertyParseError):
        InputSpec((Box.from_arrays([0], [1]), Box.from_arrays([0, 0], [1, 1])))


def test_all_shipped_properties_parse():
    props = [n for n in shipped_names() if n.endswith(".prop")]
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
