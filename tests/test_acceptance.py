"""Acceptance suite: each test is one exit criterion, exact and timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.  Every comparison is exact (integers and integer
polynomials); there are no tolerances to tune.
"""

import time

import pytest

from nilflag.combinatorics import (
    conjugate,
    enumerate_dimvecs,
    enumerate_partitions,
    kostka_number,
    schur_dim,
    syt_count,
)
from nilflag.flaggeo import (
    Budget,
    CountCache,
    _kernel_quotient_tally,
    _strip_tally,
    fiber_count,
    fiber_count_brute,
    fiber_polynomial,
)
from nilflag.qpoly import LaurentPoly
from nilflag.verifier import (
    run_suite,
    verify_stalk_bootstrap,
    verify_stalk_hypothesis,
)

POLYNOMIAL_GRID = [
    (2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (2, 5), (3, 5),
    (2, 6), (3, 6), (4, 6), (3, 7),
]
NUMERIC_GRID = [(2, 6), (3, 6)]


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"criterion {num} failed: {description} {detail}"


@pytest.fixture(scope="module")
def shared_cache():
    return CountCache()


@pytest.fixture(scope="module")
def grid_reports(shared_cache):
    t0 = time.perf_counter()
    reports = {
        (n, d): run_suite(n, d, mode="polynomial", cache=shared_cache)
        for (n, d) in POLYNOMIAL_GRID
    }
    return reports, time.perf_counter() - t0


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    instances = 0
    for d in range(1, 5):
        for n in range(1, 5):
            for lam in enumerate_partitions(d, d):
                for dv in enumerate_dimvecs(n, d):
                    for p in (2, 3):
                        instances += 1
                        fast = fiber_count(lam, dv, p).count
                        brute = fiber_count_brute(lam, dv, p).count
                        if fast != brute:
                            mismatches.append((lam, dv, p, fast, brute))
    elapsed = time.perf_counter() - t0
    _criterion(
        1,
        "fiber_count equals fiber_count_brute for d <= 4, p in {2,3}",
        not mismatches and instances >= 400 and elapsed < 60.0,
        f"{instances} instances, {elapsed:.1f}s, mismatches={mismatches[:3]}",
    )


def test_criterion_02_trace_identity_polynomial(grid_reports):
    reports, elapsed = grid_reports
    failures = []
    for key, report in reports.items():
        trace = next(c for c in report.checks if c.name == "trace_identity")
        if trace.status != "pass":
            failures.append((key, trace.witnesses[:2]))
    _criterion(
        2,
        f"trace identity exact in polynomial mode on {POLYNOMIAL_GRID}",
        not failures and elapsed < 600.0,
        f"{elapsed:.1f}s, failures={failures}",
    )


def test_criterion_03_trace_identity_numeric(shared_cache):
    t0 = time.perf_counter()
    failures = []
    for n, d in NUMERIC_GRID:
        report = run_suite(n, d, mode="numeric", primes=[2, 3], cache=shared_cache)
        trace = next(c for c in report.checks if c.name == "trace_identity")
        if trace.status != "pass":
            failures.append(((n, d), trace.witnesses[:2]))
    elapsed = time.perf_counter() - t0
    _criterion(
        3,
        f"trace identity exact at q in {{2,3}} on {NUMERIC_GRID}",
        not failures and elapsed < 600.0,
        f"{elapsed:.1f}s, failures={failures}",
    )


def test_criterion_04_worked_fixed_points():
    expected = [
        (((1, 1), (1, 1)), LaurentPoly({1: 1, 0: 1})),
        (((2, 1), (1, 1, 1)), LaurentPoly({1: 2, 0: 1})),
        (((1, 1, 1), (2, 1)), LaurentPoly({2: 1, 1: 1, 0: 1})),
        (((2,), (2, 0)), LaurentPoly()),
    ]
    bad = [
        (pair, fiber_polynomial(*pair).to_text(), want.to_text())
        for pair, want in expected
        if fiber_polynomial(*pair) != want
    ]
    _criterion(4, "worked fiber polynomials are exact", not bad, str(bad))


def test_criterion_05_semismall(grid_reports):
    reports, _ = grid_reports
    failures = [
        (key, next(c for c in r.checks if c.name == "semismall").witnesses[:2])
        for key, r in reports.items()
        if next(c for c in r.checks if c.name == "semismall").status != "pass"
    ]
    _criterion(
        5, "semi-small degree bounds hold on the full grid", not failures,
        str(failures))


def test_criterion_06_top_components(grid_reports):
    reports, _ = grid_reports
    failures = [
        key
        for key, r in reports.items()
        if next(c for c in r.checks if c.name == "top_components").status != "pass"
    ]
    subregular = fiber_polynomial((2, 1), (1, 1, 1))
    witness_ok = (
        subregular.coeff(1) == 2 == kostka_number((2, 1), (1, 1, 1))
    )
    _criterion(
        6,
        "top-degree coefficients equal weight multiplicities; subregular witness",
        not failures and witness_ok,
        f"failures={failures}, coeff={subregular.coeff(1)}",
    )


def test_criterion_07_stalk_bootstrap(shared_cache):
    from nilflag.verifier import FiberStore

    failures = []
    for d in range(1, 5):
        for n in range(1, 5):
            fibers = FiberStore(cache=shared_cache)
            check, table = verify_stalk_bootstrap(n, d, fibers=fibers)
            if check.status != "pass" or table is None:
                failures.append(((n, d), "bootstrap", check.witnesses[:2]))
                continue
            hyp = verify_stalk_hypothesis(table)
            if hyp.status != "pass":
                failures.append(((n, d), "hypothesis", hyp.witnesses[:2]))
    _criterion(
        7,
        "stalk systems consistent, invariants hold, trace hypothesis verified (d <= 4)",
        not failures,
        str(failures),
    )


def test_criterion_08_schur_weyl_dimensions():
    failures = []
    for n in range(1, 5):
        for d in range(1, 7):
            dimvecs = enumerate_dimvecs(n, d)
            total = 0
            for P in enumerate_partitions(n, d):
                shape = conjugate(P)
                dim = schur_dim(shape, n)
                total += syt_count(P) * dim
                weight_sum = sum(kostka_number(shape, dv) for dv in dimvecs)
                if dim != weight_sum:
                    failures.append((n, d, P, dim, weight_sum))
            if total != n**d:
                failures.append((n, d, "sum", total, n**d))
    _criterion(
        8,
        "tensor-power dimension sums and weight-sum consistency (n <= 4, d <= 6)",
        not failures,
        str(failures[:3]),
    )


def test_criterion_09_convention_guard(shared_cache):
    literal = run_suite(2, 2, convention="literal-paper", cache=shared_cache)
    standard = run_suite(2, 2, convention="standard", cache=shared_cache)
    trace = next(c for c in literal.checks if c.name == "trace_identity")
    witnesses = {(tuple(w["lambda"]), tuple(w["dimvec"])) for w in trace.witnesses}
    ok = (
        not literal.ok
        and trace.status == "fail"
        and ((2,), (2, 0)) in witnesses
        and standard.ok
    )
    _criterion(
        9,
        "literal pairing fails at (2,2) with witness lambda=(2), dv=(2,0); "
        "transposed pairing passes",
        ok,
        f"witnesses={sorted(witnesses)}",
    )


def test_criterion_10_deterministic_reports():
    first = run_suite(2, 3).to_json()
    second = run_suite(2, 3).to_json()
    numeric_first = run_suite(2, 4, mode="numeric").to_json()
    numeric_second = run_suite(2, 4, mode="numeric").to_json()
    ok = first == second and numeric_first == numeric_second
    _criterion(10, "consecutive verify runs are byte-identical", ok)


def test_criterion_11_strip_engine_against_enumeration():
    t0 = time.perf_counter()
    tally_bad = []
    tallies = 0
    for d in range(1, 6):
        for lam in enumerate_partitions(d, d):
            for m in range(len(lam) + 1):
                for p in (2, 3, 5):
                    tallies += 1
                    enumerated = dict(_kernel_quotient_tally(lam, m, p, Budget()))
                    strips = {mu: g(p) for mu, g in _strip_tally(lam, m) if g(p)}
                    if strips != enumerated:
                        tally_bad.append((lam, m, p, strips, enumerated))
    poly_bad = []
    instances = 0
    for d in range(1, 5):
        for n in range(1, 5):
            for lam in enumerate_partitions(d, d):
                for dv in enumerate_dimvecs(n, d):
                    poly = fiber_polynomial(lam, dv)
                    for p in (2, 3):
                        instances += 1
                        brute = fiber_count_brute(lam, dv, p).count
                        if poly(p) != brute:
                            poly_bad.append((lam, dv, p, poly.to_text(), brute))
    elapsed = time.perf_counter() - t0
    _criterion(
        11,
        "vertical-strip Hall polynomials equal the enumerated kernel/quotient "
        "tally for |lambda| <= 5, p in {2,3,5}; fiber_polynomial equals "
        "fiber_count_brute for d <= 4, p in {2,3}",
        not tally_bad and not poly_bad and tallies >= 150 and instances >= 400,
        f"{tallies} tallies, {instances} instances, {elapsed:.1f}s, "
        f"mismatches={(tally_bad + poly_bad)[:3]}",
    )
