"""Executable identity suites over the flag-count data, with JSON reports.

Each check compares two independently computed sides of an exact
identity: fiber-count polynomials from the vertical-strip Hall
recursion on one side, charge q-analogs and weight multiplicities on the
other.  The run's primes (2 and 3 unless given) are where flags are
counted by enumeration over F_q: numeric mode compares those counts with
the character side, and polynomial mode checks the fiber polynomials
against them.  Every check returns a CheckResult with pass/fail/skipped
status and failure witnesses; a VerificationReport bundles them with the
run parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .combinatorics import (
    DimVector,
    Partition,
    conjugate,
    dominates,
    enumerate_dimvecs,
    enumerate_partitions,
    flag_dim,
    kostka_number,
    n_stat,
    nilcone_dim,
    orbit_dim,
    refines,
    schur_dim,
    syt_count,
)
from .flaggeo import (
    BudgetExceeded,
    CountCache,
    check_prime,
    fiber_count,
    fiber_polynomial,
)
from .qpoly import LaurentPoly, modified_kostka_foulkes

CONVENTIONS = ("standard", "literal-paper")
DEFAULT_PRIMES = (2, 3)


class StalkConsistencyError(ValueError):
    """The overdetermined stalk system has no common solution."""


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    cases: int = 0
    witnesses: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "cases": self.cases,
            "witnesses": self.witnesses,
        }


@dataclass
class VerificationReport:
    params: dict
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self, pretty: bool = False) -> str:
        payload = {
            "params": self.params,
            "checks": [c.as_dict() for c in self.checks],
        }
        if pretty:
            return json.dumps(payload, indent=2)
        return json.dumps(payload, separators=(",", ":"))


@dataclass
class StalkTable:
    """Solved stalk traces t_P(lam), one Laurent polynomial per pair."""

    n: int
    d: int
    entries: dict[tuple[Partition, Partition], LaurentPoly]

    def get(self, orbit, point_type) -> LaurentPoly:
        return self.entries[(tuple(orbit), tuple(point_type))]


class FiberStore:
    """Fiber polynomials and enumerated counts for one verification run.

    Polynomials are pure and memoized in flaggeo; the budget and the
    count cache apply to the enumerated counts.
    """

    def __init__(self, budget=None, cache: CountCache | None = None):
        self.budget = budget
        self.cache = cache

    def poly(self, lam, dv) -> LaurentPoly:
        return fiber_polynomial(lam, dv)

    def count(self, lam, dv, q) -> int:
        return fiber_count(lam, dv, q, budget=self.budget, cache=self.cache).count


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")


def _count_primes(primes) -> list[int]:
    """The primes at which flags are counted: DEFAULT_PRIMES unless given."""
    if primes is None:
        return list(DEFAULT_PRIMES)
    checked = [check_prime(q) for q in primes]
    if not checked:
        raise ValueError("need at least one prime")
    return checked


def trace_identity_rhs(n: int, d: int, lam, dv, convention: str = "standard") -> LaurentPoly:
    """Predicted count polynomial for (lam, dv) from the character data.

    q^(flag_dim(dv) - n_stat(1^d)) times the sum over admissible Jordan
    types P of the modified charge polynomial at (P, lam) weighted by the
    multiplicity of dv in the module attached to P.  The standard
    convention reads that multiplicity off the conjugate shape; the
    literal-paper convention keeps P itself and is retained only to show
    it fails.
    """
    _check_convention(convention)
    total = LaurentPoly()
    for P in enumerate_partitions(n, d):
        weight_shape = conjugate(P) if convention == "standard" else P
        mult = kostka_number(weight_shape, dv)
        if mult:
            total = total + modified_kostka_foulkes(P, lam) * mult
    return total.shift(flag_dim(dv) - n_stat((1,) * d))


def _witness_key(w: dict):
    return (
        tuple(w.get("lambda") or ()),
        tuple(w.get("dimvec") or ()),
        w.get("q", 0),
        tuple(w.get("orbit") or ()),
    )


def verify_trace_identity(
    n: int,
    d: int,
    *,
    mode: str = "polynomial",
    primes=None,
    convention: str = "standard",
    fibers: FiberStore | None = None,
) -> CheckResult:
    """Check the count identity for every (lam, dv) pair at (n, d).

    Polynomial mode demands exact equality of Laurent polynomials, then
    checks the fiber polynomial against the enumerated flag count at
    each of the primes; one pair is one case.  Numeric mode compares the
    enumerated counts with the character side at each prime, one case
    per pair and prime.
    """
    _check_convention(convention)
    if mode not in ("polynomial", "numeric"):
        raise ValueError("mode must be 'polynomial' or 'numeric'")
    fibers = fibers if fibers is not None else FiberStore()
    witnesses: list[dict] = []
    cases = 0
    count_primes = _count_primes(primes)
    for lam in enumerate_partitions(n, d):
        for dv in enumerate_dimvecs(n, d):
            rhs = trace_identity_rhs(n, d, lam, dv, convention)
            if mode == "polynomial":
                cases += 1
                lhs = fibers.poly(lam, dv)
                if lhs != rhs:
                    witnesses.append({
                        "lambda": list(lam),
                        "dimvec": list(dv),
                        "left": lhs.to_text(),
                        "right": rhs.to_text(),
                    })
                    continue
            else:
                cases += len(count_primes)
            for q in count_primes:
                left_val = fibers.count(lam, dv, q)
                right_val = rhs(q)
                if left_val != right_val:
                    witnesses.append({
                        "lambda": list(lam),
                        "dimvec": list(dv),
                        "q": q,
                        "left": str(left_val),
                        "right": str(right_val),
                    })
    witnesses.sort(key=_witness_key)
    return CheckResult(
        "trace_identity", "pass" if not witnesses else "fail", cases, witnesses)


def bootstrap_stalks(
    n: int,
    d: int,
    *,
    fibers: FiberStore | None = None,
    row_order: str = "descending",
) -> StalkTable:
    """Solve for the stalk traces from normalized fiber polynomials.

    For each lam, the equations over all dimension vectors dv read
    q^(-flag_dim(dv)) * fiber_polynomial(lam, dv) =
    sum over P of t_P(lam) * kostka_number(conjugate(P), dv).  A
    unitriangular subset of rows (one per P) determines the unique
    solution; every remaining equation is then checked, and failure
    raises StalkConsistencyError.  row_order picks which representative
    dimension vectors are used ("descending" sorted jumps or their
    "ascending" reversals) -- the result must not depend on it.
    """
    if row_order not in ("descending", "ascending"):
        raise ValueError("row_order must be 'descending' or 'ascending'")
    fibers = fibers if fibers is not None else FiberStore()
    parts = enumerate_partitions(n, d)
    mus = {P: conjugate(P) + (0,) * (n - len(conjugate(P))) for P in parts}
    order = sorted(parts, key=lambda P: mus[P], reverse=True)
    if row_order == "descending":
        rows = [mus[P] for P in order]
    else:
        rows = [tuple(reversed(mus[P])) for P in order]

    entries: dict[tuple[Partition, Partition], LaurentPoly] = {}
    for lam in parts:

        def normalized(dv) -> LaurentPoly:
            return fibers.poly(lam, dv).shift(-flag_dim(dv))

        solved: dict[Partition, LaurentPoly] = {}
        for i, P in enumerate(order):
            acc = normalized(rows[i])
            for j in range(i):
                m = kostka_number(conjugate(order[j]), rows[i])
                if m:
                    acc = acc - solved[order[j]] * m
            # the diagonal multiplicity kostka(conj P, mu_P) is 1
            solved[P] = acc
        for dv in enumerate_dimvecs(n, d):
            predicted = LaurentPoly()
            for P in parts:
                m = kostka_number(conjugate(P), dv)
                if m:
                    predicted = predicted + solved[P] * m
            if predicted != normalized(dv):
                raise StalkConsistencyError(
                    f"stalk system inconsistent at lam={lam}, dv={dv}: "
                    f"{predicted.to_text()} != {normalized(dv).to_text()}")
        for P in parts:
            entries[(P, lam)] = solved[P]
    return StalkTable(n, d, entries)


def verify_stalk_bootstrap(
    n: int, d: int, *, fibers: FiberStore | None = None
) -> tuple[CheckResult, StalkTable | None]:
    """Solve the stalk systems and validate the table invariants.

    Invariants: t_P(lam) vanishes unless P dominates lam, and
    t_P(P) = q^(-orbit_dim(P)/2).
    """
    witnesses: list[dict] = []
    cases = 0
    try:
        table = bootstrap_stalks(n, d, fibers=fibers)
    except ValueError as exc:
        return CheckResult("stalk_bootstrap", "fail", 0, [{"error": str(exc)}]), None
    parts = enumerate_partitions(n, d)
    cases += len(parts) * len(enumerate_dimvecs(n, d))  # consistency equations
    for P in parts:
        for lam in parts:
            entry = table.entries[(P, lam)]
            cases += 1
            if not dominates(P, lam) and not entry.is_zero:
                witnesses.append({
                    "orbit": list(P),
                    "lambda": list(lam),
                    "value": entry.to_text(),
                    "reason": "support outside the dominance order",
                })
        cases += 1
        expected = LaurentPoly.q_power(-(orbit_dim(P) // 2))
        if table.entries[(P, P)] != expected:
            witnesses.append({
                "orbit": list(P),
                "lambda": list(P),
                "value": table.entries[(P, P)].to_text(),
                "reason": f"normalization should be {expected.to_text()}",
            })
    witnesses.sort(key=_witness_key)
    status = "pass" if not witnesses else "fail"
    return CheckResult("stalk_bootstrap", status, cases, witnesses), table


def verify_stalk_hypothesis(table: StalkTable) -> CheckResult:
    """Compare solved stalk traces with the modified charge polynomials.

    Claim: t_P(lam) = q^(-n_stat(1^d)) * modified_kostka_foulkes(P, lam).
    """
    shift = -n_stat((1,) * table.d)
    witnesses: list[dict] = []
    cases = 0
    for (P, lam), value in table.entries.items():
        cases += 1
        expected = modified_kostka_foulkes(P, lam).shift(shift)
        if value != expected:
            witnesses.append({
                "orbit": list(P),
                "lambda": list(lam),
                "left": value.to_text(),
                "right": expected.to_text(),
            })
    witnesses.sort(key=_witness_key)
    return CheckResult(
        "stalk_hypothesis", "pass" if not witnesses else "fail", cases, witnesses)


def verify_semismall(n: int, d: int, *, fibers: FiberStore | None = None) -> CheckResult:
    """Degree bounds on every fiber polynomial.

    deg <= flag_dim(dv) - orbit_dim(lam)/2 per component, and
    deg <= (nilcone_dim(n, d) - orbit_dim(lam))/2 globally.
    """
    fibers = fibers if fibers is not None else FiberStore()
    witnesses: list[dict] = []
    cases = 0
    cone = nilcone_dim(n, d)
    for lam in enumerate_partitions(n, d):
        half_orbit = orbit_dim(lam) // 2
        global_bound = (cone - orbit_dim(lam)) // 2
        for dv in enumerate_dimvecs(n, d):
            cases += 1
            deg = fibers.poly(lam, dv).degree()
            if deg is None:
                continue
            limit = min(flag_dim(dv) - half_orbit, global_bound)
            if deg > limit:
                witnesses.append({
                    "lambda": list(lam),
                    "dimvec": list(dv),
                    "degree": deg,
                    "bound": limit,
                })
    witnesses.sort(key=_witness_key)
    return CheckResult(
        "semismall", "pass" if not witnesses else "fail", cases, witnesses)


def verify_top_components(n: int, d: int, *, fibers: FiberStore | None = None) -> CheckResult:
    """Top coefficients of fiber polynomials against weight multiplicities.

    The coefficient at degree flag_dim(dv) - orbit_dim(lam)/2 must equal
    kostka_number(conjugate(lam), dv): it counts the top-dimensional
    components of the fiber piece.
    """
    fibers = fibers if fibers is not None else FiberStore()
    witnesses: list[dict] = []
    cases = 0
    for lam in enumerate_partitions(n, d):
        half_orbit = orbit_dim(lam) // 2
        for dv in enumerate_dimvecs(n, d):
            cases += 1
            target = flag_dim(dv) - half_orbit
            got = fibers.poly(lam, dv).coeff(target)
            want = kostka_number(conjugate(lam), dv)
            if got != want:
                witnesses.append({
                    "lambda": list(lam),
                    "dimvec": list(dv),
                    "degree": target,
                    "left": got,
                    "right": want,
                })
    witnesses.sort(key=_witness_key)
    return CheckResult(
        "top_components", "pass" if not witnesses else "fail", cases, witnesses)


def verify_schur_weyl(n: int, d: int) -> CheckResult:
    """Dimension bookkeeping for the tensor power of an n-space.

    Sum over admissible P of syt_count(P) * schur_dim(conjugate(P), n)
    must equal n^d, and each schur_dim must equal its Kostka weight sum.
    """
    if n > 6 or d > 7:
        raise ValueError("verify_schur_weyl supports n <= 6, d <= 7")
    witnesses: list[dict] = []
    cases = 0
    dimvecs = enumerate_dimvecs(n, d)
    total = 0
    for P in enumerate_partitions(n, d):
        shape = conjugate(P)
        dim = schur_dim(shape, n)
        total += syt_count(P) * dim
        cases += 1
        weight_sum = sum(kostka_number(shape, dv) for dv in dimvecs)
        if dim != weight_sum:
            witnesses.append({
                "lambda": list(P),
                "left": dim,
                "right": weight_sum,
                "reason": "hook-content dimension differs from the weight sum",
            })
    cases += 1
    if total != n**d:
        witnesses.append({
            "left": total,
            "right": n**d,
            "reason": "tensor-power dimension sum",
        })
    witnesses.sort(key=_witness_key)
    return CheckResult(
        "schur_weyl", "pass" if not witnesses else "fail", cases, witnesses)


def verify_young_rule(d: int) -> CheckResult:
    """Multiplicity-one and vanishing pattern that pins each shape.

    kostka_number(P, P) = 1 for every partition P of d, and
    kostka_number(P, P') = 0 whenever P strictly refines P'.
    """
    if d > 8:
        raise ValueError("verify_young_rule supports d <= 8")
    witnesses: list[dict] = []
    cases = 0
    parts = enumerate_partitions(d, d)
    for P in parts:
        cases += 1
        if kostka_number(P, P) != 1:
            witnesses.append({
                "lambda": list(P),
                "left": kostka_number(P, P),
                "right": 1,
            })
        for Q in parts:
            if P != Q and refines(P, Q):
                cases += 1
                if kostka_number(P, Q) != 0:
                    witnesses.append({
                        "lambda": list(P),
                        "coarser": list(Q),
                        "left": kostka_number(P, Q),
                        "right": 0,
                    })
    witnesses.sort(key=_witness_key)
    return CheckResult(
        "young_rule", "pass" if not witnesses else "fail", cases, witnesses)


def _guarded(name: str, thunk) -> CheckResult:
    try:
        return thunk()
    except (ValueError, ArithmeticError, BudgetExceeded) as exc:
        return CheckResult(name, "fail", 0, [{"error": str(exc)}])


def run_suite(
    n: int,
    d: int,
    *,
    mode: str = "polynomial",
    primes=None,
    convention: str = "standard",
    budget=None,
    cache: CountCache | None = None,
) -> VerificationReport:
    """Run every check at (n, d) and assemble a canonical report.

    Checks appear sorted by name; polynomial-only checks are reported as
    skipped in numeric mode.  The report carries no timestamps, so equal
    parameters give byte-identical output.
    """
    if n < 1 or d < 1:
        raise ValueError("run_suite needs n >= 1 and d >= 1")
    if mode not in ("polynomial", "numeric"):
        raise ValueError("mode must be 'polynomial' or 'numeric'")
    _check_convention(convention)
    primes = _count_primes(primes)

    fibers = FiberStore(budget=budget, cache=cache)
    checks: list[CheckResult] = []
    checks.append(_guarded(
        "trace_identity",
        lambda: verify_trace_identity(
            n, d, mode=mode, primes=primes, convention=convention, fibers=fibers)))

    if mode == "polynomial":
        checks.append(_guarded(
            "semismall", lambda: verify_semismall(n, d, fibers=fibers)))
        checks.append(_guarded(
            "top_components", lambda: verify_top_components(n, d, fibers=fibers)))
        bootstrap_check, table = verify_stalk_bootstrap(n, d, fibers=fibers)
        checks.append(bootstrap_check)
        if table is not None:
            checks.append(_guarded(
                "stalk_hypothesis", lambda: verify_stalk_hypothesis(table)))
        else:
            checks.append(CheckResult("stalk_hypothesis", "skipped"))
    else:
        for name in ("semismall", "top_components", "stalk_bootstrap", "stalk_hypothesis"):
            checks.append(CheckResult(name, "skipped"))

    if n <= 6 and d <= 7:
        checks.append(_guarded("schur_weyl", lambda: verify_schur_weyl(n, d)))
    else:
        checks.append(CheckResult("schur_weyl", "skipped"))
    if d <= 8:
        checks.append(_guarded("young_rule", lambda: verify_young_rule(d)))
    else:
        checks.append(CheckResult("young_rule", "skipped"))

    params = {
        "n": n,
        "d": d,
        "mode": mode,
        "primes": primes,
        "convention": convention,
    }
    checks.sort(key=lambda c: c.name)
    return VerificationReport(params, checks)
