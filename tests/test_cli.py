import json
import math
from fractions import Fraction

import pytest

from relucheck.cli import run
from relucheck.data import shipped_path
from relucheck.network import DimensionMismatchError

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


def test_verify_unknown_exit_2(capsys):
    rc = run(["verify", "--network", NET, "--property", LE15, "--max-depth", "0"])
    assert rc == 2
    assert capsys.readouterr().out.startswith("Unknown")


def test_verify_naive_mode(capsys):
    assert run(["verify", "--network", NET, "--property", LE20, "--mode", "naive"]) == 0


def test_verify_fp32(capsys):
    assert run(["verify", "--network", NET, "--property", LE20, "--fp32"]) == 0


def test_verify_workers(capsys):
    assert run(["verify", "--network", NET, "--property", LE15, "--workers", "4"]) == 1


def test_verify_report(tmp_path, capsys):
    report = tmp_path / "r.json"
    run(["verify", "--network", NET, "--property", LE15, "--report", str(report)])
    doc = json.loads(report.read_text())
    assert doc["status"] == "insecure"


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


def test_enumerate_all_secure_exit_0(capsys):
    assert run(["enumerate", "--network", NET, "--property", LE20]) == 0


def test_eval(capsys):
    assert run(["eval", "--network", NET, "--input", "4,1"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert run(["eval", "--network", NET, "--input", "6,5"]) == 0
    assert capsys.readouterr().out.strip() == "16"


def test_eval_bad_input_exit_3(capsys):
    assert run(["eval", "--network", NET, "--input", "4,banana"]) == 3


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


def test_missing_network_file_exit_3(capsys):
    assert run(["verify", "--network", "/no/such.nnl", "--property", LE20]) == 3


def test_malformed_network_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.nnl"
    for text in ("not a network\n", *MALFORMED_JSON):
        bad.write_text(text)
        assert run(["info", "--network", str(bad)]) == 4, text
        assert capsys.readouterr().err.startswith("error:")


def test_malformed_property_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.prop"
    bad.write_text("domain:\n0 1\nregion:\n*\nconstraint:\nfrob 0 1\n")
    assert run(["verify", "--network", NET, "--property", str(bad)]) == 4


def test_property_bad_numbers_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.prop"
    for text in (
        "outputs: one\ndomain:\n4 6\n1 5\nregion:\n*\n*\nconstraint:\nle 0 5\n",
        "domain:\n4 six\n1 5\nregion:\n*\n*\nconstraint:\nle 0 5\n",
    ):
        bad.write_text(text)
        assert run(["verify", "--network", NET, "--property", str(bad)]) == 4


def test_bound_overflow_exit_2(tmp_path, capsys, recwarn):
    net = tmp_path / "huge.nnl"
    big = "1e200,1e200\n1e200,1e200\n0,0\n"
    net.write_text("3 2 1 2\n2,2,2,1\n" + big + big + "1,1\n0\n")
    for mode in ("naive", "symbolic"):
        for workers in ("1", "2"):
            args = ["--property", LE20, "--mode", mode, "--workers", workers]
            assert run(["verify", "--network", str(net)] + args) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "overflow" in err and err.count("\n") == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_property_dim_mismatch_exit_5(tmp_path, capsys):
    bad = tmp_path / "wrongdim.prop"
    bad.write_text("domain:\n0 1\nregion:\n*\nconstraint:\nle 0 5\n")
    assert run(["verify", "--network", NET, "--property", str(bad)]) == 5


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
