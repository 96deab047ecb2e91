"""Command-line front end: single queries, verification suites, reports.

All machine output is JSON on stdout; --pretty switches to indented
form.  Exit codes: 0 all checks pass, 1 verification failure, 2 usage or
resource error.  The NILFLAG_CACHE environment variable supplies a
default count-cache path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .combinatorics import (
    enumerate_dimvecs,
    enumerate_partitions,
    check_dimvec,
    check_partition,
    kostka_number,
    parse_parts,
    format_parts,
)
from .flaggeo import (
    BudgetExceeded,
    CountCache,
    fiber_count,
    fiber_count_brute,
    fiber_polynomial,
)
from .qpoly import kostka_foulkes
from .verifier import bootstrap_stalks, run_suite, verify_schur_weyl

ENV_CACHE = "NILFLAG_CACHE"
EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilflag",
        description="Exact flag-count identities for nilpotent matrices over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pretty(p):
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")

    p = sub.add_parser("partitions", help="partitions of d with parts at most n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    add_pretty(p)

    p = sub.add_parser("dimvecs", help="n-tuples of non-negative integers summing to d")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    add_pretty(p)

    p = sub.add_parser("kostka", help="semistandard tableau count")
    p.add_argument("--shape", required=True, help='partition, e.g. "2,1"')
    p.add_argument("--weight", required=True, help='composition, e.g. "1,1,1"')
    add_pretty(p)

    p = sub.add_parser("kostka-foulkes", help="charge generating polynomial")
    p.add_argument("--shape", required=True)
    p.add_argument("--weight", required=True, help="partition weight")
    add_pretty(p)

    p = sub.add_parser("fiber-count", help="count flags compatible with a nilpotent")
    p.add_argument("--lambda", dest="lam", required=True, help="Jordan type")
    p.add_argument("--dimvec", required=True, help="flag jump vector")
    p.add_argument("--q", type=int, required=True, help="prime field size")
    p.add_argument("--brute", action="store_true", help="use the enumeration oracle")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--cache", default=None)
    add_pretty(p)

    p = sub.add_parser(
        "fiber-poly", help="count polynomial from the vertical-strip Hall recursion")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--dimvec", required=True)
    add_pretty(p)

    p = sub.add_parser("bootstrap", help="solve the stalk-trace linear systems")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    add_pretty(p)

    p = sub.add_parser("verify", help="run the full identity suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=("polynomial", "numeric"), default="polynomial")
    p.add_argument(
        "--primes", default=None,
        help='primes at which flags are counted, comma-separated (default "2,3")')
    p.add_argument(
        "--convention", choices=("standard", "literal-paper"), default="standard")
    p.add_argument("--report", default=None, help="also write the report to this path")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--cache", default=None)
    add_pretty(p)

    p = sub.add_parser("schur-weyl", help="tensor-power dimension identity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    add_pretty(p)

    return parser


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload, separators=(",", ":")))


def _cache_from(args) -> CountCache | None:
    path = getattr(args, "cache", None) or os.environ.get(ENV_CACHE)
    return CountCache(path) if path else None


def _parse_primes(text):
    if text is None:
        return None
    return [int(x) for x in str(text).split(",")]


def _dispatch(args) -> int:
    if args.command == "partitions":
        values = enumerate_partitions(args.n, args.d)
        _emit({"partitions": [list(p) for p in values]}, args.pretty)
        return EXIT_OK

    if args.command == "dimvecs":
        values = enumerate_dimvecs(args.n, args.d)
        _emit({"dimvecs": [list(v) for v in values]}, args.pretty)
        return EXIT_OK

    if args.command == "kostka":
        shape = check_partition(parse_parts(args.shape))
        weight = check_dimvec(parse_parts(args.weight))
        _emit({"kostka": kostka_number(shape, weight)}, args.pretty)
        return EXIT_OK

    if args.command == "kostka-foulkes":
        shape = check_partition(parse_parts(args.shape))
        weight = check_partition(parse_parts(args.weight))
        _emit({"poly": kostka_foulkes(shape, weight).to_text()}, args.pretty)
        return EXIT_OK

    if args.command == "fiber-count":
        lam = check_partition(parse_parts(args.lam))
        dv = check_dimvec(parse_parts(args.dimvec))
        if args.brute:
            record = fiber_count_brute(lam, dv, args.q, budget=args.budget)
        else:
            record = fiber_count(
                lam, dv, args.q, budget=args.budget, cache=_cache_from(args))
        _emit({"count": record.count}, args.pretty)
        return EXIT_OK

    if args.command == "fiber-poly":
        lam = check_partition(parse_parts(args.lam))
        dv = check_dimvec(parse_parts(args.dimvec))
        poly = fiber_polynomial(lam, dv)
        _emit({"poly": poly.to_text()}, args.pretty)
        return EXIT_OK

    if args.command == "bootstrap":
        table = bootstrap_stalks(args.n, args.d)
        stalks: dict[str, dict[str, str]] = {}
        for (orbit, lam), poly in sorted(table.entries.items()):
            stalks.setdefault(format_parts(orbit), {})[format_parts(lam)] = poly.to_text()
        _emit({"n": args.n, "d": args.d, "stalks": stalks}, args.pretty)
        return EXIT_OK

    if args.command == "verify":
        report = run_suite(
            args.n,
            args.d,
            mode=args.mode,
            primes=_parse_primes(args.primes),
            convention=args.convention,
            budget=args.budget,
            cache=_cache_from(args),
        )
        text = report.to_json(pretty=args.pretty)
        print(text)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report.to_json() + "\n")
        return EXIT_OK if report.ok else EXIT_FAIL

    if args.command == "schur-weyl":
        result = verify_schur_weyl(args.n, args.d)
        _emit(result.as_dict(), args.pretty)
        return EXIT_OK if result.status == "pass" else EXIT_FAIL

    raise ValueError(f"unknown command {args.command!r}")


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _dispatch(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
