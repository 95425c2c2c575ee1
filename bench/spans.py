"""Tracing from outside the package: spans around calls into each layer.

`Tracer.install` replaces the names that relucheck's modules call each
other through (`relucheck.engine.symbolic_forward`,
`relucheck.propagate.bounds_of_rows`, ...) with wrappers that record a
span: name, start, end and parent. Spans are kept in per-thread arrays in
memory and written out once, after the traced pass. Nothing in the package
is edited; `uninstall` puts the original functions back.

A span's layer is the part of its name before the first dot. A layer's
self time is the time of its spans minus the part their child spans
cover. The cost of the wrappers themselves lands in the caller's self
time, which is why tracing_overhead is reported.
"""

from __future__ import annotations

import threading
import time
from array import array

import numpy as np

# (module, attribute, span name): the calls between relucheck's modules.
TARGETS = [
    ("engine", "symbolic_forward", "propagate.symbolic_forward"),
    ("engine", "naive_forward", "propagate.naive_forward"),
    ("engine", "backward_gradient", "gradients.backward_gradient"),
    ("engine", "smear_split_choice", "gradients.smear_split_choice"),
    ("engine", "check_sound", "properties.check_sound"),
    ("engine", "check_concrete", "properties.check_concrete"),
    ("engine", "eval_concrete_batch", "network.eval_concrete_batch"),
    ("engine", "eval_concrete", "network.eval_concrete"),
    ("engine", "iv_bisect", "intervals.iv_bisect"),
    ("propagate", "bounds_of_rows", "symbolic.bounds_of_rows"),
    ("propagate", "matvec_bounds", "intervals.matvec_bounds"),
    ("properties", "expr_bounds", "symbolic.expr_bounds"),
    ("intervals", "round_out", "intervals.round_out"),
    ("gradients", "round_out", "intervals.round_out"),
]
# package-level entry points the benchmark itself calls
ENTRY = [
    ("verify", "engine.case"),
    ("enumerate_regions", "engine.case"),
    ("load_network", "network.load_network"),
    ("parse_property", "properties.parse_property"),
]
LAYERS = ["intervals", "symbolic", "propagate", "gradients", "properties", "network", "engine"]
# spans reported with call counts and mean inclusive time
TIMED = [
    "propagate.symbolic_forward", "propagate.naive_forward", "symbolic.bounds_of_rows",
    "symbolic.expr_bounds", "gradients.backward_gradient", "gradients.smear_split_choice",
    "properties.check_sound", "properties.check_concrete", "intervals.matvec_bounds",
    "intervals.round_out", "intervals.iv_bisect", "network.eval_concrete_batch", "engine.node",
]
MAX_HIDDEN = 6


class _Buffer:
    """One thread's spans and counters."""

    def __init__(self):
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack = []
        self.counts = {"holds": 0, "insecure_leaves": 0}
        self.unstable = [0] * MAX_HIDDEN


class Tracer:
    def __init__(self, rc):
        self.rc = rc
        self.names = []
        self.local = threading.local()
        self.buffers = []
        self.lock = threading.Lock()
        self.saved = []
        self.setup_spans = None

    # -- recording ---------------------------------------------------------
    def _buffer(self):
        buf = getattr(self.local, "buf", None)
        if buf is None:
            buf = self.local.buf = _Buffer()
            with self.lock:
                self.buffers.append(buf)
        return buf

    def _wrap(self, fn, name, after=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        get = self._buffer

        def traced(*args, **kwargs):
            buf = get()
            i = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0.0)
            buf.stack.append(i)
            buf.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                buf.end[i] = clock()
                buf.stack.pop()
            if after is not None:
                after(buf, out)
            return out

        return traced

    def install(self):
        import relucheck.engine as engine

        rc = self.rc
        unstable_state = rc.ReluState.UNSTABLE
        holds = rc.properties.TriState.HOLDS

        def count_unstable(buf, fr):
            for k, layer in enumerate(fr.masks.layers[:MAX_HIDDEN]):
                buf.unstable[k] += layer.count(unstable_state)

        def count_holds(buf, result):
            buf.counts["holds"] += result is holds

        after = {
            "propagate.symbolic_forward": count_unstable,
            "properties.check_sound": count_holds,
        }
        modules = {name: getattr(rc, name) for name in ("engine", "propagate", "properties", "intervals", "gradients")}
        for mod, attr, name in TARGETS:
            self._patch(modules[mod], attr, name, after.get(name))
        for attr, name in ENTRY:
            self._patch(rc, attr, name)
        self._patch(engine._Run, "process", "engine.node")

        leaf = engine._Run._leaf
        insecure = engine.SubStatus.INSECURE_SUB
        get = self._buffer

        def counted_leaf(run, job, status, cex=None):
            if status is insecure:
                get().counts["insecure_leaves"] += 1
            return leaf(run, job, status, cex)

        self.saved.append((engine._Run, "_leaf", leaf))
        engine._Run._leaf = counted_leaf

    def _patch(self, owner, attr, name, after=None):
        orig = getattr(owner, attr)
        self.saved.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(orig, name, after))

    def uninstall(self):
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved = []

    def span_setup(self, load):
        """Trace one set-up (loading every file) apart from the cases."""
        load()
        self.setup_spans = self._collect()
        self.buffers = []
        self.local = threading.local()

    # -- analysis ----------------------------------------------------------
    def _collect(self):
        names, start, end, parent, thread = [], [], [], [], []
        offset = 0
        for t, buf in enumerate(self.buffers):
            p = np.frombuffer(buf.parent, dtype=np.int64)
            names.append(np.frombuffer(buf.name, dtype=np.uint8))
            start.append(np.frombuffer(buf.start))
            end.append(np.frombuffer(buf.end))
            parent.append(np.where(p >= 0, p + offset, -1))
            thread.append(np.full(len(buf.start), t, dtype=np.int32))
            offset += len(buf.start)
        cat = lambda xs, dt: np.concatenate(xs) if xs else np.zeros(0, dtype=dt)
        return {
            "name": cat(names, np.uint8),
            "start": cat(start, np.float64),
            "end": cat(end, np.float64),
            "parent": cat(parent, np.int64),
            "thread": cat(thread, np.int32),
        }

    def _self_times(self, s):
        dur = s["end"] - s["start"]
        child = np.zeros_like(dur)
        has = s["parent"] >= 0
        np.add.at(child, s["parent"][has], dur[has])
        self_t = dur - child
        # A case run by worker threads has no children in its own thread:
        # its self time is the part of it no root span of another thread covers.
        case_id = self.names.index("engine.case") if "engine.case" in self.names else -1
        roots = np.flatnonzero(~has & (s["name"] != case_id))
        order = roots[np.argsort(s["start"][roots])]
        for c in np.flatnonzero(s["name"] == case_id):
            lo = np.searchsorted(s["start"][order], s["start"][c])
            hi = np.searchsorted(s["start"][order], s["end"][c])
            inside = order[lo:hi]
            inside = inside[s["thread"][inside] != s["thread"][c]]
            if len(inside):
                self_t[c] -= _union(s["start"][inside], s["end"][inside])
        return dur, self_t

    def metrics(self, net, untraced_s, traced_s):
        """Per-layer metrics of the traced runs, as {name: {value, unit}}.

        `untraced_s` and `traced_s` are the summed case times of the same
        cases run without and with tracing.
        """
        s = self.spans = self._collect()
        dur, self_t = self._self_times(s)
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def calls(name):
            return int((s["name"] == self.names.index(name)).sum()) if name in self.names else 0

        for name in TIMED:
            sel = s["name"] == self.names.index(name) if name in self.names else np.zeros(len(dur), bool)
            put(name + ".calls", int(sel.sum()), "count")
            put(name + ".us", float(dur[sel].mean() * 1e6) if sel.any() else 0.0, "us")
        for name in ("network.load_network", "properties.parse_property"):
            su = self.setup_spans
            sel = su["name"] == self.names.index(name)
            put(name + ".us", float((su["end"][sel] - su["start"][sel]).mean() * 1e6), "us")

        counts = {"holds": 0, "insecure_leaves": 0}
        unstable = [0] * MAX_HIDDEN
        for buf in self.buffers:
            for k in counts:
                counts[k] += buf.counts[k]
            unstable = [a + b for a, b in zip(unstable, buf.unstable)]
        sf = calls("propagate.symbolic_forward")
        for k in range(MAX_HIDDEN):
            put(f"propagate.unstable_relus.L{k + 1}", unstable[k] / sf if sf else 0.0, "count")
        flops, nbytes = symbolic_forward_cost(net) if sf else (0, 0)
        put("propagate.symbolic_forward.flops_computed", flops, "flop")
        put("propagate.symbolic_forward.bytes_computed", nbytes, "B")
        cs = calls("properties.check_sound")
        put("properties.check_sound.holds_frac", counts["holds"] / cs if cs else 0.0, "ratio")
        ec = calls("network.eval_concrete_batch")
        put("network.sample_hit_frac", counts["insecure_leaves"] / ec if ec else 0.0, "ratio")
        bg, sm = calls("gradients.backward_gradient"), calls("gradients.smear_split_choice")
        put("gradients.monotone_frac", (bg - sm) / bg if bg else 0.0, "ratio")

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for nid, name in enumerate(self.names):
            layer_self[name.split(".", 1)[0]] += float(self_t[s["name"] == nid].sum())
        for layer, t in layer_self.items():
            if layer == "engine":
                put("engine.self_s", t, "s")
                put("engine.self_share", t / traced_s, "ratio")
            else:
                put(f"{layer}.share", t / traced_s, "ratio")
        put("traced.workload_s", traced_s, "s")
        put("tracing_overhead", traced_s / untraced_s - 1.0, "ratio")
        return out

    def write(self, path):
        s = self.spans
        np.savez_compressed(path, names=np.array(self.names), **s)


def _union(starts, ends):
    order = np.argsort(starts)
    total, cur_s, cur_e = 0.0, None, None
    for a, b in zip(starts[order], ends[order]):
        if cur_e is None or a > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = a, b
        elif b > cur_e:
            cur_e = b
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def symbolic_forward_cost(net):
    """Computed (not measured) matrix-product flops and bytes per call.

    Per layer W (n x m) over d inputs, `_affine_rows` does four (n x m) @
    (m x d) products and four matrix-vector products; each hidden layer
    then evaluates `bounds_of_rows` twice and the output once, each call
    six (rows x d) matrix-vector products (four bound sums, two slacks).
    Bytes count float64 operands read and results written once each.
    """
    d = net.input_dim
    flops = nbytes = 0
    for k, layer in enumerate(net.layers):
        n, m = layer.W.shape
        flops += 4 * 2 * n * m * d + 4 * 2 * n * m
        nbytes += 8 * 4 * (n * m + m * d + n * d) + 8 * 4 * (n * m + m + n)
        calls = 2 if k < len(net.layers) - 1 else 1
        flops += calls * 6 * 2 * n * d
        nbytes += calls * 8 * 6 * (n * d + d + n)
    return flops, nbytes
