"""Command-line front end.

Subcommands:

  run <manifest> [--out PATH] [--csv PATH] [--seed N] [--tol name=value]
                 [--timings]
      Execute a manifest and write the JSON report (stdout by default).
      --seed and --tol are validated as manifest fields, and the report
      embeds the manifest with them.  Exit code 0 iff every check verdict
      is true, 2 for a manifest error.

  verify-paper [--filter TEXT] [--details]
      Run the bundled verification scenarios and print a pass/fail table,
      with every scenario's detail lines under --details (a failing
      scenario's always).  Exit code 0 iff every scenario passes.

  eval --expr TEXT --at COORDS [--order D]
      Evaluate an expression as a jet and print all partial derivatives.
"""

from __future__ import annotations

import argparse
import sys

from .errors import FinslerError, ManifestError
from .exprlang import parse, shared_tape
from .jets import get_context
from .manifest import load_manifest, validate_manifest
from .report import json_dumps, write_csv, write_report
from .runner import run
from .scenarios import run_scenarios


def _parse_tolerance(text):
    if "=" not in text:
        raise argparse.ArgumentTypeError("expected name=value")
    name, _, value = text.partition("=")
    try:
        return name.strip(), float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance value {value!r}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="finslerlab",
        description="Curvature engine and Einstein-condition checkers for "
                    "(alpha,beta)-metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a manifest")
    p_run.add_argument("manifest", help="path to the manifest JSON")
    p_run.add_argument("--out", help="write the JSON report here")
    p_run.add_argument("--csv", help="write the per-point CSV table here")
    p_run.add_argument("--seed", type=int,
                       help="override the manifest sampling seed")
    p_run.add_argument("--tol", action="append", type=_parse_tolerance,
                       default=[], metavar="NAME=VALUE",
                       help="override a tolerance (repeatable)")
    p_run.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the report "
                            "(breaks byte-for-byte reproducibility)")

    p_verify = sub.add_parser("verify-paper",
                              help="run the bundled verification scenarios")
    p_verify.add_argument("--filter", default=None,
                          help="only run scenarios whose anchor contains TEXT")
    p_verify.add_argument("--details", action="store_true",
                          help="print per-scenario detail lines")

    p_eval = sub.add_parser("eval", help="evaluate an expression as a jet")
    p_eval.add_argument("--expr", required=True)
    p_eval.add_argument("--at", required=True,
                        help="comma-separated coordinates")
    p_eval.add_argument("--order", type=int, default=2)
    return parser


def cmd_run(args):
    try:
        manifest = load_manifest(args.manifest)
        if args.seed is not None or args.tol:
            # the overrides are validated, and reported, as manifest fields
            doc = dict(manifest.raw)
            if args.seed is not None:
                doc["samples"] = {**doc["samples"], "seed": args.seed}
            if args.tol:
                doc["tolerances"] = {**doc.get("tolerances", {}),
                                     **dict(args.tol)}
            manifest = validate_manifest(doc)
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    report = run(manifest, include_timings=args.timings)
    if args.out:
        write_report(report, args.out)
    else:
        print(json_dumps(report))
    if args.csv:
        write_csv(report, args.csv)
    return 0 if report["verdict"] else 1


def cmd_verify(args):
    results = run_scenarios(args.filter)
    if not results:
        print(f"no scenario matches filter {args.filter!r}", file=sys.stderr)
        return 2
    width = max(len(r.anchor) for r in results)
    failures = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.anchor:<{width}}  {status}  ({r.duration:6.2f}s)  "
              f"{r.description}")
        if args.details or not r.passed:
            for line in r.details:
                print(f"    {line}")
        if not r.passed:
            failures += 1
    print(f"{len(results) - failures}/{len(results)} scenarios passed")
    return 0 if failures == 0 else 1


def cmd_eval(args):
    try:
        coords = [float(v) for v in args.at.split(",") if v.strip() != ""]
    except ValueError:
        print(f"bad coordinates {args.at!r}", file=sys.stderr)
        return 2
    try:
        ast = parse(args.expr)
        ctx = get_context(max(len(coords), 1), args.order)
        c = shared_tape((ast,)).jets(ctx, coords)[0]
    except (FinslerError, ValueError) as exc:  # ValueError: bad order or point
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"value: {float(c[0]):.17g}")
    for k, mono in enumerate(ctx.monomials[1:], start=1):
        label = " ".join(f"d{i + 1}^{e}" if e > 1 else f"d{i + 1}"
                         for i, e in enumerate(mono) if e)
        print(f"{label}: {float(c[k] * ctx.factorial[k]):.17g}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "verify-paper":
        return cmd_verify(args)
    return cmd_eval(args)


if __name__ == "__main__":
    sys.exit(main())
