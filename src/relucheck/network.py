"""ReLU feed-forward network model: loading, validation, concrete evaluation.

Two on-disk formats are accepted:

* "NNET-lite" plain text (ACAS-Xu-style): header line ``numLayers d m
  maxLayerSize``, a line of comma-separated layer sizes, an optional
  ``norm:`` line of per-input ``mean,range`` pairs, then per layer the
  weight rows followed by one bias line. ``//`` or ``#`` starts a comment.
* A JSON document with the same fields (detected by a leading ``{``).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "Layer",
    "Network",
    "NetworkFormatError",
    "load_network",
    "eval_concrete",
]


class NetworkFormatError(ValueError):
    """Malformed network file (parse error, shape mismatch, bad values)."""


class DimensionMismatchError(ValueError):
    """An input, box or property does not have the network's input dimension."""


@dataclass(frozen=True)
class Layer:
    """An affine map W x + b; its position in a `Network` gives its activation."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        if W.ndim != 2 or b.ndim != 1 or W.shape[0] != b.shape[0]:
            raise NetworkFormatError(
                f"layer shape mismatch: W {W.shape}, b {b.shape}"
            )
        if 0 in W.shape:
            raise NetworkFormatError(f"layer size below 1: W {W.shape}")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise NetworkFormatError("layer weights must be finite")

    @property
    def out_size(self) -> int:
        return self.W.shape[0]

    @property
    def in_size(self) -> int:
        return self.W.shape[1]


@dataclass(frozen=True)
class Network:
    """Stack of affine layers, ReLU on all hidden layers, identity on the last.

    Optional per-input normalization: inputs given in raw units are mapped
    to (x - mean) / range before the first layer.
    """

    layers: tuple
    norm_mean: Optional[np.ndarray] = None
    norm_range: Optional[np.ndarray] = None

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise NetworkFormatError("network has no layers")
        for k in range(1, len(layers)):
            if layers[k].in_size != layers[k - 1].out_size:
                raise NetworkFormatError(
                    f"layer {k} expects {layers[k].in_size} inputs, "
                    f"layer {k - 1} produces {layers[k - 1].out_size}"
                )
        if (self.norm_mean is None) != (self.norm_range is None):
            raise NetworkFormatError("normalization needs both mean and range")
        if self.norm_mean is not None:
            mean = np.asarray(self.norm_mean, dtype=np.float64)
            rng = np.asarray(self.norm_range, dtype=np.float64)
            object.__setattr__(self, "norm_mean", mean)
            object.__setattr__(self, "norm_range", rng)
            if mean.shape != (self.input_dim,) or rng.shape != (self.input_dim,):
                raise NetworkFormatError("normalization length must equal input dim")
            if np.any(rng <= 0.0) or not np.all(np.isfinite(mean)) or not np.all(np.isfinite(rng)):
                raise NetworkFormatError("normalization ranges must be finite and positive")

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_size

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_size

    @property
    def num_hidden(self) -> int:
        return len(self.layers) - 1

    @property
    def has_normalization(self) -> bool:
        return self.norm_mean is not None

    def normalize(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.norm_mean is None:
            return x
        return (x - self.norm_mean) / self.norm_range

    @functools.cached_property
    def split_weights(self) -> tuple:
        """(W+, W-) of every layer: the positive and negative parts of W.

        Computed at first use and kept on this network. The engine
        analyses a new network around a loaded network's layers in each
        run, so a run that never bounds a box never computes them, and a
        loaded network never keeps them, which would triple its weight
        memory.
        """
        return tuple((np.maximum(l.W, 0.0), np.minimum(l.W, 0.0)) for l in self.layers)


def eval_concrete(net: Network, x) -> np.ndarray:
    """Exact forward pass at a single point (raw units when normalized)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise DimensionMismatchError(f"input has shape {x.shape}, expected ({net.input_dim},)")
    return eval_concrete_batch(net, x[np.newaxis, :])[0]


def eval_concrete_batch(net: Network, xs) -> np.ndarray:
    """Forward pass for a batch of points, shape (n, d) -> (n, m).

    Each point is multiplied through on its own, as a column, so its
    outputs are the bits it would get alone.
    """
    v = net.normalize(xs)[..., np.newaxis]
    *hidden, last = net.layers
    for layer in hidden:
        v = np.maximum(layer.W @ v + layer.b[:, np.newaxis], 0.0)
    return (last.W @ v)[..., 0] + last.b


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if "/" in line:  # far cheaper on long weight rows than a search for "//"
            line = line.split("//", 1)[0]
        line = line.strip()
        if line:
            yield lineno, line


def _floats(line: str, lineno: int):
    try:
        return [float(tok) for tok in line.replace(",", " ").split()]
    except ValueError as e:
        raise NetworkFormatError(f"line {lineno}: {e}") from None


def _counts(line: str, lineno: int, what: str):
    vals = _floats(line, lineno)
    if not all(v.is_integer() for v in vals):
        raise NetworkFormatError(f"line {lineno}: {what} must be finite integers, got {line!r}")
    return [int(v) for v in vals]


def _parse_nnet_lite(text: str) -> Network:
    lines = list(_data_lines(text))
    at = 0  # the next line to read

    def take(n: int) -> list:
        """The next n data lines: the one end-of-input check."""
        nonlocal at
        if at + n > len(lines):
            raise NetworkFormatError("unexpected end of network file")
        at += n
        return lines[at - n : at]

    [(lineno, header)] = take(1)
    head = _counts(header, lineno, "header values")
    if len(head) != 4:
        raise NetworkFormatError(f"line {lineno}: header needs 4 numbers, got {len(head)}")
    num_layers, d, m, max_size = head
    if num_layers < 1 or d < 1 or m < 1:
        raise NetworkFormatError(f"line {lineno}: invalid header values")

    [(lineno, sizes_line)] = take(1)
    sizes = _counts(sizes_line, lineno, "layer sizes")
    if len(sizes) != num_layers + 1:
        raise NetworkFormatError(
            f"line {lineno}: expected {num_layers + 1} layer sizes, got {len(sizes)}"
        )
    if sizes[0] != d or sizes[-1] != m or min(sizes) < 1:
        raise NetworkFormatError(
            f"line {lineno}: layer sizes must be positive and agree with header dims"
        )
    if max(sizes) != max_size:
        raise NetworkFormatError(
            f"line {lineno}: largest layer size is {max(sizes)}, header says {max_size}"
        )

    norm_mean = norm_range = None
    if at < len(lines) and lines[at][1].startswith("norm:"):
        [(lineno, line)] = take(1)
        pairs = line[len("norm:"):].strip().split()
        if len(pairs) != d:
            raise NetworkFormatError(f"line {lineno}: expected {d} mean,range pairs")
        vals = [_floats(p, lineno) for p in pairs]
        if any(len(v) != 2 for v in vals):
            raise NetworkFormatError(f"line {lineno}: each norm entry must be mean,range")
        norm_mean = np.array([v[0] for v in vals])
        norm_range = np.array([v[1] for v in vals])

    layers = []
    for k in range(num_layers):
        in_size, out_size = sizes[k], sizes[k + 1]
        block = take(out_size + 1)
        wants = [("weight row", in_size)] * out_size + [("bias", out_size)]
        rows = []  # the weight rows, then the bias
        for (lineno, line), (what, want) in zip(block, wants):
            row = _floats(line, lineno)
            if len(row) != want:
                raise NetworkFormatError(
                    f"line {lineno}: layer {k} {what} has {len(row)} entries, expected {want}"
                )
            rows.append(row)
        layers.append(Layer(np.array(rows[:-1]), np.array(rows[-1])))

    if at < len(lines):
        raise NetworkFormatError("trailing data after last layer")
    return Network(tuple(layers), norm_mean, norm_range)


def _parse_json(text: str) -> Network:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise NetworkFormatError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("layers"), list):
        raise NetworkFormatError("JSON network must be an object with a 'layers' list")
    raw_layers = doc["layers"]
    layers = []
    for k, entry in enumerate(raw_layers):
        try:
            W = np.array(entry["W"], dtype=np.float64)
            b = np.array(entry["b"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as e:
            raise NetworkFormatError(f"layer {k}: {e}") from None
        # a declared activation must be the one the layer's position gives it
        act = "identity" if k == len(raw_layers) - 1 else "relu"
        declared = entry.get("activation")
        if declared is not None and declared != act:
            raise NetworkFormatError(f"layer {k}: unsupported activation {declared!r}")
        layers.append(Layer(W, b))
    norm = doc.get("norm")
    mean = rng = None
    if norm is not None:
        try:
            mean = np.array(norm["mean"], dtype=np.float64)
            rng = np.array(norm["range"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as e:
            raise NetworkFormatError(
                f"norm must map 'mean' and 'range' to lists of numbers ({e})"
            ) from None
    return Network(tuple(layers), mean, rng)


def read_text(source, error: type, what: str) -> str:
    """The text of `source`: an open file, bytes or str, without a leading
    byte-order mark. Bytes that are not UTF-8 raise `error`, a message
    naming the `what` file."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as e:
            raise error(f"{what} file is not UTF-8 text: {e}") from None
    return source.removeprefix("\ufeff")


def load_network(source) -> Network:
    """Load a network from bytes, text, or an open file: JSON when it
    starts with '{', NNET-lite text otherwise."""
    text = read_text(source, NetworkFormatError, "network")
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    return _parse_nnet_lite(text)
