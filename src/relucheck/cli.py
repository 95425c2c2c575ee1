"""Command-line front end.

Exit codes: 0 secure, 1 insecure, 2 unknown/timeout or bound overflow,
3 bad flags, 4 parse errors, 5 dimension mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .engine import Config, Status, enumerate_regions, internal_view, verify, write_report
from .intervals import IntervalOverflowError, RoundingPolicy
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

    def add_common(sp, with_property=True):
        sp.add_argument("--network", required=True, help="network file (NNET-lite or JSON)")
        if with_property:
            sp.add_argument("--property", required=True, help="property file")
            sp.add_argument("--mode", choices=["naive", "symbolic"], default="symbolic")
            sp.add_argument("--precision", type=float, default=1e-6)
            sp.add_argument("--timeout", type=float, default=300.0)
            sp.add_argument("--max-depth", type=int, default=None)
            sp.add_argument("--workers", type=int, default=os.cpu_count() or 1)
            sp.add_argument("--samples", choices=["midpoint", "corners"], default="midpoint")
            sp.add_argument("--report", default=None, help="write a JSON run report here")
            sp.add_argument("--fp32", action="store_true", help="32-bit outward rounding")

    add_common(sub.add_parser("verify", help="prove or refute a property"))
    add_common(sub.add_parser("enumerate", help="partition into secure/insecure sub-boxes"))

    ev = sub.add_parser("eval", help="concrete forward pass")
    ev.add_argument("--network", required=True)
    ev.add_argument("--input", required=True, help="comma-separated input values")

    info = sub.add_parser("info", help="network summary")
    info.add_argument("--network", required=True)

    bench = sub.add_parser("bench", help="naive vs symbolic width comparison")
    bench.add_argument("--network", required=True)
    bench.add_argument("--property", required=True, help="boxes taken from its regions")
    return p


def _load_net(path: str):
    with open(path, "rb") as f:
        return load_network(f)


def _load_prop(path: str, num_outputs: int):
    with open(path, "rb") as f:
        return parse_property(f, num_outputs=num_outputs)


def _config(args) -> Config:
    return Config(
        precision=args.precision,
        timeout=args.timeout,
        max_depth=args.max_depth,
        workers=args.workers,
        mode=args.mode,
        sample_strategy=args.samples,
        policy=RoundingPolicy(precision=32 if args.fp32 else 64),
    )


def _cmd_verify(args) -> int:
    net = _load_net(args.network)
    spec = _load_prop(args.property, net.output_dim)
    verdict = verify(net, spec, _config(args))
    if args.report:
        write_report(args.report, verdict)
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
    net = _load_net(args.network)
    spec = _load_prop(args.property, net.output_dim)
    report = enumerate_regions(net, spec, _config(args))
    if args.report:
        write_report(args.report, report)
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
        print("error: --input must be comma-separated numbers", file=sys.stderr)
        return EXIT_BAD_FLAGS
    y = eval_concrete(net, x)
    print(",".join(f"{v:g}" for v in y))
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
    print(f"{'box':>4} {'out':>4} {'naive width':>14} {'symbolic width':>14} {'reduction':>10}")
    core, regions = internal_view(net, input_spec)
    for bi, box in enumerate(regions):
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
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return EXIT_BAD_FLAGS
    except FileNotFoundError as e:
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
