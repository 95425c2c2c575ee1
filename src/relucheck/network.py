"""ReLU feed-forward network model: loading, validation, concrete evaluation.

Two on-disk formats are accepted:

* "NNET-lite" plain text (ACAS-Xu-style): header line ``numLayers d m
  maxLayerSize``, a line of comma-separated layer sizes, an optional
  ``norm:`` line of per-input ``mean,range`` pairs, then per layer the
  weight rows followed by one bias line. ``//`` or ``#`` starts a comment.
* A JSON document with the same fields (detected by a leading ``{``).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "Activation",
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


class Activation(enum.Enum):
    RELU = "relu"
    IDENTITY = "identity"


@dataclass(frozen=True)
class Layer:
    W: np.ndarray
    b: np.ndarray
    activation: Activation

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        if W.ndim != 2 or b.ndim != 1 or W.shape[0] != b.shape[0]:
            raise NetworkFormatError(
                f"layer shape mismatch: W {W.shape}, b {b.shape}"
            )
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
        for k, layer in enumerate(layers):
            want = Activation.IDENTITY if k == len(layers) - 1 else Activation.RELU
            if layer.activation is not want:
                raise NetworkFormatError(f"layer {k} must use {want.value} activation")
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
        if not self.has_normalization:
            return np.asarray(x, dtype=np.float64)
        return (np.asarray(x, dtype=np.float64) - self.norm_mean) / self.norm_range

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        if not self.has_normalization:
            return np.asarray(x, dtype=np.float64)
        return np.asarray(x, dtype=np.float64) * self.norm_range + self.norm_mean


def eval_concrete(net: Network, x) -> np.ndarray:
    """Exact forward pass at a single point (raw units when normalized)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise DimensionMismatchError(f"input has shape {x.shape}, expected ({net.input_dim},)")
    return eval_concrete_batch(net, x[np.newaxis, :])[0]


def eval_concrete_batch(net: Network, xs) -> np.ndarray:
    """Forward pass for a batch of points, shape (n, d) -> (n, m).

    Each point is multiplied through on its own, so its outputs are the
    bits it would get alone.
    """
    v = np.asarray(xs, dtype=np.float64)
    if net.has_normalization:
        v = (v - net.norm_mean) / net.norm_range
    for k, layer in enumerate(net.layers):
        v = (layer.W @ v[..., np.newaxis])[..., 0] + layer.b
        if layer.activation is Activation.RELU:
            v = np.maximum(v, 0.0)
    return v


def split_weights(net: Network) -> tuple:
    """(W+, W-) of every layer: the positive and negative parts of W.

    Callers compute them once per run; they are not kept on `Layer`, where
    they would triple the weight memory of every loaded network.
    """
    return tuple((np.maximum(l.W, 0.0), np.minimum(l.W, 0.0)) for l in net.layers)


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


def _parse_nnet_lite(text: str) -> Network:
    lines = list(_data_lines(text))
    if not lines:
        raise NetworkFormatError("empty network file")
    it = iter(lines)

    lineno, header = next(it)
    head = _floats(header, lineno)
    if len(head) != 4:
        raise NetworkFormatError(f"line {lineno}: header needs 4 numbers, got {len(head)}")
    num_layers, d, m, _max_size = (int(v) for v in head)
    if num_layers < 1 or d < 1 or m < 1:
        raise NetworkFormatError(f"line {lineno}: invalid header values")

    try:
        lineno, sizes_line = next(it)
    except StopIteration:
        raise NetworkFormatError("missing layer sizes line") from None
    sizes = [int(v) for v in _floats(sizes_line, lineno)]
    if len(sizes) != num_layers + 1:
        raise NetworkFormatError(
            f"line {lineno}: expected {num_layers + 1} layer sizes, got {len(sizes)}"
        )
    if sizes[0] != d or sizes[-1] != m:
        raise NetworkFormatError(f"line {lineno}: layer sizes disagree with header dims")

    norm_mean = norm_range = None
    pending = None
    try:
        lineno, line = next(it)
    except StopIteration:
        raise NetworkFormatError("missing weight data") from None
    if line.startswith("norm:"):
        pairs = line[len("norm:"):].strip().split()
        if len(pairs) != d:
            raise NetworkFormatError(f"line {lineno}: expected {d} mean,range pairs")
        vals = [_floats(p, lineno) for p in pairs]
        if any(len(v) != 2 for v in vals):
            raise NetworkFormatError(f"line {lineno}: each norm entry must be mean,range")
        norm_mean = np.array([v[0] for v in vals])
        norm_range = np.array([v[1] for v in vals])
    else:
        pending = (lineno, line)

    def next_line():
        nonlocal pending
        if pending is not None:
            out, pending = pending, None
            return out
        try:
            return next(it)
        except StopIteration:
            raise NetworkFormatError("unexpected end of file in weight data") from None

    layers = []
    for k in range(num_layers):
        in_size, out_size = sizes[k], sizes[k + 1]
        rows = []
        for _ in range(out_size):
            lineno, line = next_line()
            row = _floats(line, lineno)
            if len(row) != in_size:
                raise NetworkFormatError(
                    f"line {lineno}: layer {k} weight row has {len(row)} entries, expected {in_size}"
                )
            rows.append(row)
        lineno, line = next_line()
        bias = _floats(line, lineno)
        if len(bias) != out_size:
            raise NetworkFormatError(
                f"line {lineno}: layer {k} bias has {len(bias)} entries, expected {out_size}"
            )
        act = Activation.IDENTITY if k == num_layers - 1 else Activation.RELU
        layers.append(Layer(np.array(rows), np.array(bias), act))

    if pending is not None or any(True for _ in it):
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
    if not raw_layers:
        raise NetworkFormatError("network has no layers")
    layers = []
    for k, entry in enumerate(raw_layers):
        try:
            W = np.array(entry["W"], dtype=np.float64)
            b = np.array(entry["b"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as e:
            raise NetworkFormatError(f"layer {k}: {e}") from None
        act = Activation.IDENTITY if k == len(raw_layers) - 1 else Activation.RELU
        declared = entry.get("activation")
        if declared is not None and declared != act.value:
            raise NetworkFormatError(f"layer {k}: unsupported activation {declared!r}")
        layers.append(Layer(W, b, act))
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


def load_network(source, fmt: str = "auto") -> Network:
    """Load a network from bytes, text, or an open file.

    fmt: "nnet" (NNET-lite text), "json", or "auto" (sniff leading '{').
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if fmt == "auto":
        stripped = source.lstrip()
        fmt = "json" if stripped.startswith("{") else "nnet"
    if fmt == "json":
        return _parse_json(source)
    if fmt == "nnet":
        return _parse_nnet_lite(source)
    raise ValueError(f"unknown network format {fmt!r}")
