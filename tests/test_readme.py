"""The README's file-format examples load as written."""

from pathlib import Path

import numpy as np

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
    assert (spec.regions[0][0].lo, spec.regions[0][1].hi) == (4.0, 5.0)
