"""Command-line front end.

Exit codes: 0 secure, 1 insecure, 2 unknown/timeout or bound overflow,
3 bad flags or unreadable paths, 4 parse errors, 5 dimension mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from .engine import Config, Status, enumerate_regions, internal_view, verify, write_report
from .intervals import IntervalOverflowError
from .network import DimensionMismatchError, NetworkFormatError, eval_concrete, load_network
from .propagate import naive_forward, symbolic_forward
from .properties import PropertyParseError, parse_property

EXIT_SECURE = 0
EXIT_INSECURE = 1
EXIT_UNKNOWN = 2
EXIT_BAD_FLAGS = 3
EXIT_PARSE_ERROR = 4
EXIT_DIM_MISMATCH = 5


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="relucheck", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    network = argparse.ArgumentParser(add_help=False)
    network.add_argument("--network", required=True, help="network file (NNET-lite or JSON)")

    def command(name, func, summary):
        sp = sub.add_parser(name, help=summary, parents=[network])
        sp.set_defaults(func=func)
        return sp

    for sp in (
        command("verify", _cmd_verify, "prove or refute a property"),
        command("enumerate", _cmd_enumerate, "partition into secure/insecure sub-boxes"),
    ):
        sp.add_argument("--property", required=True, help="property file")
        sp.add_argument("--mode", choices=["naive", "symbolic"], default="symbolic")
        sp.add_argument("--precision", type=float, default=1e-6)
        sp.add_argument("--timeout", type=float, default=300.0)
        sp.add_argument("--max-depth", type=int, default=None)
        sp.add_argument("--samples", choices=["midpoint", "corners"], default="midpoint")
        sp.add_argument("--report", default=None, help="write a JSON run report here")

    ev = command("eval", _cmd_eval, "concrete forward pass")
    ev.add_argument("--input", required=True, help="comma-separated input values")
    command("info", _cmd_info, "network summary")
    bench = command("bench", _cmd_bench, "naive vs symbolic width comparison")
    bench.add_argument("--property", required=True, help="boxes taken from its regions")
    return p


def _load_net(path: str):
    with open(path, "rb") as f:
        return load_network(f)


def _load_prop(path: str, num_outputs: int):
    with open(path, "rb") as f:
        return parse_property(f, num_outputs=num_outputs)


def _search(args, search):
    """Load the network and the property, run `search` (`verify` or
    `enumerate_regions`) under the flags' Config, and write its report to
    --report, when given. The report file is opened before the search, so
    that a path that cannot be written fails before the search spends its
    time."""
    net = _load_net(args.network)
    spec = _load_prop(args.property, net.output_dim)
    config = Config(
        precision=args.precision,
        timeout=args.timeout,
        max_depth=args.max_depth,
        mode=args.mode,
        sample_strategy=args.samples,
    )
    with open(args.report, "w") if args.report else contextlib.nullcontext() as out:
        result = search(net, spec, config)
        if out:
            write_report(out, result)
    return result


def _cmd_verify(args) -> int:
    verdict = _search(args, verify)
    s = verdict.stats
    if verdict.status is Status.SECURE:
        print(f"Secure (nodes={s.nodes_explored} max_depth={s.max_depth} time={s.wall_time:.2f}s)")
        return EXIT_SECURE
    if verdict.status is Status.INSECURE:
        cex = ",".join(repr(float(v)) for v in verdict.counterexample)
        print(f"Insecure cex=({cex}) (nodes={s.nodes_explored} time={s.wall_time:.2f}s)")
        return EXIT_INSECURE
    print(f"Unknown (nodes={s.nodes_explored} max_depth={s.max_depth} time={s.wall_time:.2f}s)")
    return EXIT_UNKNOWN


def _cmd_enumerate(args) -> int:
    report = _search(args, enumerate_regions)
    counts = {"secure": 0, "insecure": 0, "unknown": 0}
    for _, status, _ in report.leaves:
        counts[status.value] += 1
    print(
        f"Partition: {len(report.leaves)} sub-boxes "
        f"(secure={counts['secure']} insecure={counts['insecure']} unknown={counts['unknown']})"
    )
    if counts["insecure"]:
        return EXIT_INSECURE
    if counts["unknown"]:
        return EXIT_UNKNOWN
    return EXIT_SECURE


def _cmd_eval(args) -> int:
    net = _load_net(args.network)
    try:
        x = np.array([float(v) for v in args.input.split(",")])
    except ValueError:
        x = None
    if x is None or not np.isfinite(x).all():
        print("error: --input must be comma-separated finite numbers", file=sys.stderr)
        return EXIT_BAD_FLAGS
    y = eval_concrete(net, x)
    print(",".join(repr(float(v)) for v in y))
    return EXIT_SECURE


def _cmd_info(args) -> int:
    net = _load_net(args.network)
    sizes = [net.input_dim] + [l.out_size for l in net.layers]
    print(f"layers: {len(net.layers)}")
    print(f"sizes: {' -> '.join(str(s) for s in sizes)}")
    print(f"inputs: {net.input_dim}  outputs: {net.output_dim}")
    print(f"normalization: {'yes' if net.has_normalization else 'no'}")
    return EXIT_SECURE


def _cmd_bench(args) -> int:
    net = _load_net(args.network)
    input_spec, _ = _load_prop(args.property, net.output_dim)
    core, regions = internal_view(net, input_spec)
    print(f"{'box':>4} {'out':>4} {'naive width':>14} {'symbolic width':>14} {'reduction':>10}")
    for bi, box in enumerate(regions.unstack()):
        nv = naive_forward(core, box)
        sy = symbolic_forward(core, box)
        for i, (wn, ws) in enumerate(zip(nv.hi - nv.lo, sy.hi - sy.lo)):
            red = 100.0 * (1.0 - ws / wn) if wn > 0 else 0.0
            print(f"{bi:>4} {i:>4} {wn:>14.6g} {ws:>14.6g} {red:>9.2f}%")
    return EXIT_SECURE


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_BAD_FLAGS if e.code not in (0,) else 0
    try:
        return args.func(args)
    except OSError as e:
        # a missing or unreadable --network, --property or --report path
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    except (NetworkFormatError, PropertyParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except IntervalOverflowError as e:
        print(f"error: {e}; no verdict", file=sys.stderr)
        return EXIT_UNKNOWN
    except DimensionMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIM_MISMATCH
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_FLAGS


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
