"""Command-line front end: single queries, verification suites, reports.

This is the program's only output layer.  Each subcommand is one parser
bound to one handler, which returns a JSON-ready payload and an exit
code; run prints the payload once, compact unless --pretty is given.
Exit codes: 0 all checks pass, 1 verification failure, 2 usage or
resource error.  Nothing is read from the environment or kept between
runs: every count is made afresh by the run that reports it.
"""

from __future__ import annotations

import argparse
import json
import sys

from .combinatorics import (
    enumerate_dimvecs,
    enumerate_partitions,
    kostka_number,
    parse_parts,
    format_parts,
)
from .flaggeo import (
    BudgetExceeded,
    fiber_count,
    fiber_count_brute,
    fiber_polynomial,
)
from .qpoly import kostka_foulkes
from .verifier import (CONVENTIONS, DEFAULT_PRIMES, MODES, bootstrap_stalks, run_suite,
                       verify_schur_weyl)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _cmd_partitions(args):
    return {"partitions": [list(p) for p in enumerate_partitions(args.n, args.d)]}, EXIT_OK


def _cmd_dimvecs(args):
    return {"dimvecs": [list(v) for v in enumerate_dimvecs(args.n, args.d)]}, EXIT_OK


def _cmd_kostka(args):
    shape, weight = parse_parts(args.shape), parse_parts(args.weight)
    return {"kostka": kostka_number(shape, weight)}, EXIT_OK


def _cmd_kostka_foulkes(args):
    shape, weight = parse_parts(args.shape), parse_parts(args.weight)
    return {"poly": kostka_foulkes(shape, weight).to_text()}, EXIT_OK


def _cmd_fiber_count(args):
    lam, dv = parse_parts(args.lam), parse_parts(args.dimvec)
    route = fiber_count_brute if args.brute else fiber_count
    return {"count": route(lam, dv, args.q, budget=args.budget)}, EXIT_OK


def _cmd_fiber_poly(args):
    poly = fiber_polynomial(parse_parts(args.lam), parse_parts(args.dimvec))
    return {"poly": poly.to_text()}, EXIT_OK


def _cmd_bootstrap(args):
    stalks: dict[str, dict[str, str]] = {}
    for (orbit, lam), poly in sorted(bootstrap_stalks(args.n, args.d).items()):
        stalks.setdefault(format_parts(orbit), {})[format_parts(lam)] = poly.to_text()
    return {"n": args.n, "d": args.d, "stalks": stalks}, EXIT_OK


def _cmd_verify(args):
    report = run_suite(
        args.n,
        args.d,
        mode=args.mode,
        primes=None if args.primes is None else parse_parts(args.primes),
        convention=args.convention,
        budget=args.budget,
    )
    payload = report.as_dict()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(_dumps(payload, False) + "\n")
    return payload, EXIT_OK if report.ok else EXIT_FAIL


def _cmd_schur_weyl(args):
    result = verify_schur_weyl(args.n, args.d)
    return result.as_dict(), EXIT_OK if result.status == "pass" else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilflag",
        description="Exact flag-count identities for nilpotent matrices over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sized = argparse.ArgumentParser(add_help=False, parents=[pretty])
    sized.add_argument("--n", type=int, required=True)
    sized.add_argument("--d", type=int, required=True)

    def command(name, handler, help, parent=pretty):
        p = sub.add_parser(name, help=help, parents=[parent])
        p.set_defaults(handler=handler)
        return p

    command("partitions", _cmd_partitions, "partitions of d with parts at most n", sized)

    command("dimvecs", _cmd_dimvecs, "n-tuples of non-negative integers summing to d", sized)

    p = command("kostka", _cmd_kostka, "semistandard tableau count")
    p.add_argument("--shape", required=True, help='partition, e.g. "2,1"')
    p.add_argument("--weight", required=True, help='composition, e.g. "1,1,1"')

    p = command("kostka-foulkes", _cmd_kostka_foulkes, "charge generating polynomial")
    p.add_argument("--shape", required=True)
    p.add_argument("--weight", required=True, help="partition weight")

    p = command("fiber-count", _cmd_fiber_count, "count flags compatible with a nilpotent")
    p.add_argument("--lambda", dest="lam", required=True, help="Jordan type")
    p.add_argument("--dimvec", required=True, help="flag jump vector")
    p.add_argument("--q", type=int, required=True, help="prime field size")
    p.add_argument("--brute", action="store_true", help="use the enumeration oracle")
    p.add_argument("--budget", type=int, default=None)

    p = command(
        "fiber-poly", _cmd_fiber_poly, "count polynomial from the vertical-strip Hall recursion")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--dimvec", required=True)

    command("bootstrap", _cmd_bootstrap, "solve the stalk-trace linear systems", sized)

    p = command("verify", _cmd_verify, "run the full identity suite", sized)
    p.add_argument("--mode", choices=MODES, default="polynomial")
    p.add_argument(
        "--primes", default=None, help="primes at which flags are counted, "
        f'comma-separated (default "{format_parts(DEFAULT_PRIMES)}")')
    p.add_argument("--convention", choices=CONVENTIONS, default="standard")
    p.add_argument("--report", default=None, help="also write the report to this path")
    p.add_argument("--budget", type=int, default=None)

    command("schur-weyl", _cmd_schur_weyl, "tensor-power dimension identity", sized)

    return parser


def _dumps(payload: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(payload, indent=2)
    return json.dumps(payload, separators=(",", ":"))


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        payload, code = args.handler(args)
        print(_dumps(payload, args.pretty))
        return code
    except RecursionError:
        print("error: maximum recursion depth exceeded", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceeded, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
