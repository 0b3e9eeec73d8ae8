"""Command-line front end.

Exit codes: 0 run completed and verdict printed, 2 usage or parse error,
3 enumeration cap exceeded, 4 property-suite failures.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import graphio, propcheck
from .errors import CmgraphError, TooLargeError
from .graph import classify, format_classes
from .separation import (
    MODE_WALKS,
    bounded_walk_oracle,
    c_connecting_witness,
    c_separated,
    models_equal,
    moral_separated,
    pairwise_model,
)
from .transform import TransformSpec, ang_transform, marginalize_and_condition

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TOO_LARGE = 3
EXIT_PROPERTY_FAILURE = 4


def _split(arg: Optional[str]) -> frozenset[str]:
    if not arg:
        return frozenset()
    return frozenset(tok for tok in arg.replace(",", " ").split() if tok)


def _fmt_statement(i: str, j: str, c: frozenset[str]) -> str:
    inner = ",".join(sorted(c))
    return f"{i} ⊥ {j} | {{{inner}}}"


def cmd_classify(args) -> int:
    g = graphio.parse_file(args.file)
    print(format_classes(classify(g)))
    return EXIT_OK


def cmd_separate(args) -> int:
    g = graphio.parse_file(args.file)
    a, b, given = _split(args.a), _split(args.b), _split(args.given)
    if args.method == "c":
        separated = c_separated(g, a, b, given)
    elif args.method == "moral":
        separated = moral_separated(g, a, b, given)
    else:
        separated = bounded_walk_oracle(g, a, b, given, mode=MODE_WALKS)
    if separated:
        print("separated")
    else:
        print("connected")
        witness = c_connecting_witness(g, a, b, given)
        if witness is not None:
            print(f"walk: {witness.render()}")
    return EXIT_OK


def cmd_transform(args) -> int:
    g = graphio.parse_file(args.file)
    spec = TransformSpec.of(_split(args.marginalize), _split(args.condition))
    if args.ang:
        result = ang_transform(g, spec)
    else:
        result = marginalize_and_condition(g, spec, order=args.order)
    sys.stdout.write(graphio.render(result))
    return EXIT_OK


def cmd_model(args) -> int:
    g = graphio.parse_file(args.file)
    model = pairwise_model(g)
    for i, j, c in model.sorted_statements():
        print(_fmt_statement(i, j, c))
    return EXIT_OK


def cmd_equal(args) -> int:
    g1 = graphio.parse_file(args.file1)
    g2 = graphio.parse_file(args.file2)
    same = models_equal(pairwise_model(g1), pairwise_model(g2))
    print("equal" if same else "not equal")
    return EXIT_OK


def cmd_dot(args) -> int:
    g = graphio.parse_file(args.file)
    sys.stdout.write(graphio.to_dot(g))
    return EXIT_OK


def cmd_check(args) -> int:
    run = {"seed": args.seed, "count": args.count, "max_nodes": args.max_nodes}
    if args.suite == "all":
        reports = propcheck.run_all(**run)
    else:
        reports = [propcheck.run_suite(args.suite, **run)]
    failures = 0
    for report in reports:
        print(report.line())
        failures += report.failures
    return EXIT_PROPERTY_FAILURE if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmgraph",
        description="chain mixed graph toolkit: classification, c-separation, "
        "latent projection, conditioning, and property suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print graph class flags")
    p.add_argument("file")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("separate", help="decide a separation query")
    p.add_argument("file")
    p.add_argument("--a", required=True, help="comma-separated node set")
    p.add_argument("--b", required=True, help="comma-separated node set")
    p.add_argument("--given", default="", help="comma-separated conditioning set")
    p.add_argument("--method", choices=("c", "moral", "oracle"), default="c")
    p.set_defaults(fn=cmd_separate)

    p = sub.add_parser("transform", help="marginalize and/or condition")
    p.add_argument("file")
    p.add_argument("-M", "--marginalize", default="", help="nodes to marginalize over")
    p.add_argument("-C", "--condition", default="", help="nodes to condition on")
    p.add_argument("--ang", action="store_true", help="produce the anterial graph")
    p.add_argument(
        "--order",
        choices=("mc", "cm"),
        default="mc",
        help="marginalize-first (mc) or condition-first (cm)",
    )
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("model", help="list the induced independence model")
    p.add_argument("file")
    p.set_defaults(fn=cmd_model)

    p = sub.add_parser("equal", help="compare induced models of two graphs")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(fn=cmd_equal)

    p = sub.add_parser("dot", help="emit DOT")
    p.add_argument("file")
    p.set_defaults(fn=cmd_dot)

    p = sub.add_parser("check", help="run property suites")
    p.add_argument(
        "--suite",
        default="all",
        choices=propcheck.SUITE_IDS + ("all",),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=500)
    p.add_argument(
        "--max-nodes", type=int, default=7, help="largest instance, 3..8 nodes"
    )
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (CmgraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
