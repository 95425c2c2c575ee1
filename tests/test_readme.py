"""The README's file-format and library examples work as written."""

import gc
import warnings
from pathlib import Path

import numpy as np

from relucheck.data import shipped_path
from relucheck.network import load_network
from relucheck.properties import OutLE, parse_property

README = Path(__file__).resolve().parents[1] / "README.md"


def _first_block_after(heading: str) -> str:
    section = README.read_text().split(heading, 1)[1]
    block = section.split("```", 2)[1]
    return block.split("\n", 1)[1]  # drop the fence's language tag line


def test_readme_network_example(demo_net):
    net = load_network(_first_block_after("### Networks"))
    for got, want in zip(net.layers, demo_net.layers):
        np.testing.assert_array_equal(got.W, want.W)
        np.testing.assert_array_equal(got.b, want.b)
    assert len(net.layers) == len(demo_net.layers)


def test_readme_property_example():
    spec, constraint = parse_property(_first_block_after("### Properties"))
    assert constraint == OutLE(0, 20.0)
    assert spec.dim == 2 and spec.units == "raw"
    assert (spec.regions[0].lo[0], spec.regions[0].hi[1]) == (4.0, 5.0)


def test_readme_library_use(capsys):
    code = _first_block_after("## Library use")
    code = code.replace('"net.nnl"', repr(str(shipped_path("demonet.nnl"))))
    code = code.replace('"prop.prop"', repr(str(shipped_path("le15.prop"))))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exec(compile(code, "README.md", "exec"), {})
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    bounds, status = capsys.readouterr().out.splitlines()
    lo, hi = (float(v) for v in bounds.strip("([],)").split(", "))
    assert lo <= 6.0 <= lo + 1e-12 and hi - 1e-12 <= 16.0 <= hi
    assert status == "Status.INSECURE"
