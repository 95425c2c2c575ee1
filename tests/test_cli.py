import json
import math
import re
from fractions import Fraction

import pytest

from relucheck import cli
from relucheck.cli import run
from relucheck.data import shipped_path
from relucheck.engine import Config, Status, Verdict
from relucheck.network import DimensionMismatchError, load_network
from relucheck.properties import parse_property

from test_network import MALFORMED_JSON

NET = str(shipped_path("demonet.nnl"))
LE20 = str(shipped_path("le20.prop"))
LE15 = str(shipped_path("le15.prop"))


def test_verify_secure_exit_0(capsys):
    assert run(["verify", "--network", NET, "--property", LE20]) == 0
    assert capsys.readouterr().out.startswith("Secure")


def test_verify_insecure_exit_1(capsys):
    assert run(["verify", "--network", NET, "--property", LE15]) == 1
    out = capsys.readouterr().out
    assert out.startswith("Insecure cex=(")


def test_verify_defaults_are_the_config_defaults(monkeypatch, capsys):
    # without --mode, --precision, --timeout, --max-depth or --samples the
    # search runs under Config()
    configs = []

    def fake_verify(net, spec, cfg):
        configs.append(cfg)
        return Verdict(Status.SECURE)

    monkeypatch.setattr(cli, "verify", fake_verify)
    assert run(["verify", "--network", NET, "--property", LE20]) == 0
    assert configs == [Config()]
    capsys.readouterr()


def test_verify_unknown_exit_2(capsys):
    # naive bounds do not prove le 20 at the root, and the property holds,
    # so neither a sample nor the root attack can refute it
    rc = run(["verify", "--network", NET, "--property", LE20, "--mode", "naive",
              "--max-depth", "0"])
    assert rc == 2
    assert capsys.readouterr().out.startswith("Unknown")


def test_verify_naive_mode(capsys):
    assert run(["verify", "--network", NET, "--property", LE20, "--mode", "naive"]) == 0


def test_verify_report(tmp_path, capsys):
    report = tmp_path / "r.json"
    run(["verify", "--network", NET, "--property", LE15, "--report", str(report)])
    doc = json.loads(report.read_text())
    assert doc["status"] == "insecure"


@pytest.mark.parametrize(
    "flags, status",
    [([], "secure"), (["--mode", "naive", "--max-depth", "0"], "unknown")],
)
def test_verify_report_without_counterexample(tmp_path, capsys, flags, status):
    report = tmp_path / "r.json"
    run(["verify", "--network", NET, "--property", LE20, "--report", str(report), *flags])
    doc = json.loads(report.read_text())
    assert doc["status"] == status
    assert doc["counterexample"] is None


def test_enumerate(tmp_path, capsys):
    report = tmp_path / "p.json"
    rc = run(
        [
            "enumerate",
            "--network",
            NET,
            "--property",
            LE15,
            "--precision",
            "0.25",
            "--report",
            str(report),
        ]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert out.startswith("Partition:")
    doc = json.loads(report.read_text())
    assert any(leaf["status"] == "insecure" for leaf in doc["leaves"])
    assert any(leaf["status"] == "secure" for leaf in doc["leaves"])


def test_enumerate_unknown_exit_2(capsys):
    # as in test_verify_unknown_exit_2, the one leaf is Unknown and none is insecure
    rc = run(["enumerate", "--network", NET, "--property", LE20, "--mode", "naive",
              "--max-depth", "0"])
    assert rc == 2
    out = capsys.readouterr().out
    assert out.startswith("Partition: 1 sub-boxes (secure=0 insecure=0 unknown=1)")


def test_enumerate_all_secure_exit_0(capsys):
    assert run(["enumerate", "--network", NET, "--property", LE20]) == 0


def test_eval(capsys):
    assert run(["eval", "--network", NET, "--input", "4,1"]) == 0
    assert capsys.readouterr().out.strip() == "6.0"
    assert run(["eval", "--network", NET, "--input", "6,5"]) == 0
    assert capsys.readouterr().out.strip() == "16.0"


def test_eval_prints_every_digit(tmp_path, capsys):
    # y = x + 4e-7: `%g` would print 16.0000004 as 16
    net = tmp_path / "n.nnl"
    net.write_text("1 1 1 1\n1,1\n1\n4e-7\n")
    assert run(["eval", "--network", str(net), "--input", "16"]) == 0
    assert capsys.readouterr().out.strip() == repr(16.0 + 4e-7)


def test_eval_bad_input_exit_3(capsys):
    assert run(["eval", "--network", NET, "--input", "4,banana"]) == 3


@pytest.mark.parametrize("values", ["nan,0", "inf,1", "4,-inf"])
def test_eval_non_finite_input_exit_3(capsys, recwarn, values):
    assert run(["eval", "--network", NET, "--input", values]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_eval_wrong_dim_exit_5(capsys):
    assert run(["eval", "--network", NET, "--input", "4"]) == 5


def test_info(capsys):
    assert run(["info", "--network", NET]) == 0
    out = capsys.readouterr().out
    assert "2 -> 2 -> 1" in out
    assert "inputs: 2  outputs: 1" in out


def test_bench(capsys):
    assert run(["bench", "--network", NET, "--property", LE20]) == 0
    out = capsys.readouterr().out
    assert "naive width" in out and "symbolic width" in out


def test_missing_subcommand_exit_3(capsys):
    assert run([]) == 3


def test_unknown_flag_exit_3(capsys):
    assert run(["verify", "--network", NET, "--property", LE20, "--frobnicate"]) == 3


@pytest.mark.parametrize(
    "flags",
    [
        ["--timeout", "nan"],
        ["--precision", "nan"],
        ["--precision", "nan", "--max-depth", "5"],
        ["--precision", "inf"],
        ["--max-depth", "-3"],
    ],
)
def test_budget_it_cannot_honor_exit_3(flags, capsys):
    for command in ("verify", "enumerate"):
        assert run([command, "--network", NET, "--property", LE15, *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_missing_network_file_exit_3(capsys):
    assert run(["verify", "--network", "/no/such.nnl", "--property", LE20]) == 3


def _no_search(*args, **kwargs):
    raise AssertionError("searched although a path was bad")


def test_directory_path_exit_3(tmp_path, capsys, monkeypatch):
    # a path that cannot be read or written is a bad flag, never a verdict's
    # exit code, and it is found before any search
    monkeypatch.setattr(cli, "verify", _no_search)
    monkeypatch.setattr(cli, "enumerate_regions", _no_search)
    for args in (
        ["--network", str(tmp_path), "--property", LE20],
        ["--network", NET, "--property", str(tmp_path)],
        ["--network", NET, "--property", LE20, "--report", str(tmp_path)],
    ):
        for command in ("verify", "enumerate"):
            assert run([command, *args]) == 3, (command, args)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and captured.err.count("\n") == 1


# the demo net's weight and bias lines, after its header and sizes lines
DEMO_BODY = "2.0,3.0\n1.0,1.0\n0.0,0.0\n1.0,-1.0\n0.0\n"
BAD_COUNTS = [
    "inf 2 1 2\n2,2,1\n",
    "nan 2 1 2\n2,2,1\n",
    "2 2 1 2.5\n2,2,1\n",
    "2 2 1 1e400\n2,2,1\n",
    "2 2 1 2\n2,inf,1\n",
    "2 2 1 2\n2,2.5,1\n",
    "2 2 1 2\n2,nan,1\n",
    "2 2 1 -7\n2,2,1\n",
    "2 2 1 3\n2,2,1\n",
]


# the demo net cut short, grown or with a bad header, sizes or `norm:` line
DEMO_HEAD = "2 2 1 2\n2,2,1\n"
BAD_NNET_LITE = [
    "2 2 1\n2,2,1\n" + DEMO_BODY,  # a header with three numbers
    "2 2 1 2\n",  # the header alone
    "2 2 1 2\n2,2,1,1\n" + DEMO_BODY,  # one layer size too many
    DEMO_HEAD,  # no weight data
    DEMO_HEAD + "norm: 0,1\n" + DEMO_BODY,  # one mean,range pair for two inputs
    DEMO_HEAD + "norm: 0,1 5\n" + DEMO_BODY,  # a norm entry of one number
    DEMO_HEAD + DEMO_BODY[: -len("0.0\n")],  # no last bias line
    DEMO_HEAD + DEMO_BODY + "1.0\n",  # a data line after the last layer
]


# the shipped files with a byte that is not UTF-8 at the start, or in a comment
NOT_UTF8 = [b"\xff", b"# caf\xe9\n"]


def test_malformed_network_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.nnl"
    texts = (
        "not a network\n",
        *MALFORMED_JSON,
        *(head + DEMO_BODY for head in BAD_COUNTS),
        *BAD_NNET_LITE,
    )
    demo = shipped_path("demonet.nnl").read_bytes()
    for data in (*(t.encode() for t in texts), *(b + demo for b in NOT_UTF8)):
        bad.write_bytes(data)
        for argv in (["info"], ["verify", "--property", LE20]):
            assert run([*argv, "--network", str(bad)]) == 4, data
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, data


def test_malformed_property_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.prop"
    le15 = shipped_path("le15.prop").read_bytes()
    frob = b"domain:\n0 1\nregion:\n*\nconstraint:\nfrob 0 1\n"
    # a combinator without its '('
    bare = [frob.replace(b"frob", c + b" le") for c in (b"not", b"and")]
    for data in (frob, *bare, *(b + le15 for b in NOT_UTF8)):
        bad.write_bytes(data)
        assert run(["verify", "--network", NET, "--property", str(bad)]) == 4, data
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, data
        assert (data in bare) == ("expected '('" in err), data


def test_byte_order_mark_is_accepted(tmp_path, capsys):
    # UTF-8 text may start with a byte-order mark, as bytes or decoded
    plain = [shipped_path(name).read_bytes() for name in ("demonet.nnl", "le15.prop")]
    bom = tmp_path / "bom.nnl", tmp_path / "bom.prop"
    for path, data in zip(bom, plain):
        path.write_bytes(b"\xef\xbb\xbf" + data)

    def weights(net):
        return [(layer.W.tolist(), layer.b.tolist()) for layer in net.layers]

    def regions(spec):
        return [r.ends.tolist() for r in spec.regions]

    net, (spec, constraint) = load_network(plain[0]), parse_property(plain[1])
    for source in (bom[0].read_bytes(), bom[0].read_text(encoding="utf-8")):
        assert weights(load_network(source)) == weights(net)
    for source in (bom[1].read_bytes(), bom[1].read_text(encoding="utf-8")):
        got_spec, got = parse_property(source)
        assert got == constraint and regions(got_spec) == regions(spec)
    outs = []
    for paths in ((NET, LE15), bom):
        assert run(["verify", "--network", str(paths[0]), "--property", str(paths[1])]) == 1
        outs.append(capsys.readouterr())
    assert outs[1] == outs[0] and outs[0].out.startswith("Insecure cex=(6.0,5.0)")


def test_shipped_path_of_a_missing_file_raises():
    with pytest.raises(FileNotFoundError, match="nope.prop"):
        shipped_path("nope.prop")


def test_property_bad_numbers_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.prop"
    region = "domain:\n4 6\n1 5\nregion:\n*\n*\nconstraint:\n"
    for text in (
        "outputs: one\ndomain:\n4 6\n1 5\nregion:\n*\n*\nconstraint:\nle 0 5\n",
        "domain:\n4 six\n1 5\nregion:\n*\n*\nconstraint:\nle 0 5\n",
        *(f"outputs: {m}\n" + region + "le 0 15" for m in (-1, 0, 2)),
        *(region + c for c in ("le inf 3", "le 1e400 3", "le nan 3", "le 0 nan", "le 0 -inf")),
    ):
        bad.write_text(text)
        assert run(["verify", "--network", NET, "--property", str(bad)]) == 4, text
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, text


def _corruptions(path):
    """The file's text with one token replaced by a bad value, for every
    token and every value."""
    text = path.read_text()
    for tok in re.finditer(r"[^\s,]+", text):
        for bad in ("inf", "-inf", "nan", "1e400", "2.5", "-1", "x"):
            yield text[: tok.start()] + bad + text[tok.end() :]


def test_corrupted_input_never_raises(tmp_path, capsys):
    net, prop = tmp_path / "net.nnl", tmp_path / "prop.prop"
    cases = [(net, text, net, LE15) for text in _corruptions(shipped_path("demonet.nnl"))]
    cases += [(prop, text, NET, prop) for text in _corruptions(shipped_path("le15.prop"))]
    flags = ["--max-depth", "8", "--timeout", "5"]
    for target, text, net_path, prop_path in cases:
        target.write_text(text)
        code = run(["verify", "--network", str(net_path), "--property", str(prop_path)] + flags)
        assert type(code) is int and 0 <= code <= 5, text
        err = capsys.readouterr().err
        if code in (3, 4):
            assert err.startswith("error:") and err.count("\n") == 1, text


def test_bound_overflow_exit_2(tmp_path, capsys, recwarn):
    net = tmp_path / "huge.nnl"
    big = "1e200,1e200\n1e200,1e200\n0,0\n"
    net.write_text("3 2 1 2\n2,2,2,1\n" + big + big + "1,1\n0\n")
    for mode in ("naive", "symbolic"):
        args = ["--property", LE20, "--mode", mode]
        assert run(["verify", "--network", str(net)] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflow" in err and err.count("\n") == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_property_dim_mismatch_exit_5(tmp_path, capsys):
    bad = tmp_path / "wrongdim.prop"
    bad.write_text("domain:\n0 1\nregion:\n*\nconstraint:\nle 0 5\n")
    # a normalized network maps a region's bounds before any pass checks
    # their dimension; every command checks it first, and bench prints
    # no table
    net = tmp_path / "norm.json"
    layers = [{"W": [[2, 3], [1, 1]], "b": [0, 0]}, {"W": [[1, -1]], "b": [0]}]
    net.write_text(json.dumps({"layers": layers, "norm": {"mean": [1, 2], "range": [3, 4]}}))
    for network in (NET, str(net)):
        for command in ("verify", "enumerate", "bench"):
            assert run([command, "--network", network, "--property", str(bad)]) == 5
            out, err = capsys.readouterr()
            assert out == "" and "1 input dims, network expects 2" in err


def _exact_output(weights, x):
    """The 1-input 2-layer nets below, in exact rational arithmetic."""
    (w1, w2), v = weights, Fraction(x)
    return Fraction(w2) * max(Fraction(0), Fraction(w1) * v)


@pytest.mark.parametrize(
    "w1, bound",
    [("1e-10", "-1"), ("-1e-10", "1e297")],
)
def test_huge_region_counterexample_is_finite_and_inside(tmp_path, capsys, recwarn, w1, bound):
    # the region is wider than half the float range, so hi - lo overflows
    net = tmp_path / "net.nnl"
    net.write_text(f"2 1 1 1\n1,1,1\n{w1}\n0\n1\n0\n")
    prop = tmp_path / "huge.prop"
    prop.write_text(f"domain:\n-1e308 1e308\nregion:\n*\nconstraint:\nle 0 {bound}\n")
    for extra in ([], ["--max-depth", "20"]):
        assert run(["verify", "--network", str(net), "--property", str(prop)] + extra) == 1
        out = capsys.readouterr().out
        x = float(out.split("cex=(", 1)[1].split(")", 1)[0])
        assert math.isfinite(x) and -1e308 <= x <= 1e308
        assert _exact_output((float(w1), 1.0), x) > Fraction(float(bound))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_only_dimension_mismatch_exits_5(monkeypatch, capsys):
    import relucheck.cli as cli

    def fail_with(error):
        def fake_verify(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "verify", fake_verify)
        return run(["verify", "--network", NET, "--property", LE15])

    # a message that mentions a dimension does not make a mismatch
    assert fail_with(ValueError("dimension 0 is too wide to split")) == 3
    assert fail_with(DimensionMismatchError("box has 1 dims, network expects 2")) == 5
    assert run(["eval", "--network", NET, "--input", "1,2,3"]) == 5


def test_an_internal_error_exits_6_with_its_traceback(monkeypatch, capsys):
    # an exception that no documented code covers is a fault in relucheck:
    # it gives no verdict, so it must not exit 1, the code of Insecure
    def fake_verify(*args, **kwargs):
        raise IndexError("index 3 is out of bounds")

    monkeypatch.setattr(cli, "verify", fake_verify)
    assert run(["verify", "--network", NET, "--property", LE15]) == cli.EXIT_INTERNAL == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "IndexError: index 3 is out of bounds" in captured.err
