"""Executable identity suites over the flag-count data, as plain data.

Each check compares two independently computed sides of an exact
identity: fiber-count polynomials from the vertical-strip Hall recursion
on one side, charge q-analogs and weight multiplicities on the other.
Flags are counted over F_q at the run's primes (2 and 3 unless given):
numeric mode compares those counts with the character side, and
polynomial mode checks the fiber polynomials against them.  The three
checks over (lam, dv) pairs run through _each_pair, which walks the
nonzero compositions, the key of lam's fibers (ints at q = 2^B), and
reports a failing composition once, as one witness for all of its dvs.
The trace identity's right side, the stalk solve and its consistency
check share _orbit_sum, stalk traces weighted by Kostka numbers.  Every
check returns a CheckResult with pass/fail/skipped status and failure
witnesses; a VerificationReport bundles them with the run parameters.
Both turn into plain dicts with as_dict; the command line writes them as JSON.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .combinatorics import (
    DimVector,
    Partition,
    _coarsenings,
    _cut,
    _dominates,
    _kostka,
    _schur_dim,
    check_size,
    conjugate,
    enumerate_partitions,
    flag_dim,
    n_stat,
    orbit_dim,
    sorted_weight,
    syt_count,
)
from .flaggeo import Budget, _as_budget, _bits, _fiber_count, _fibers, check_prime
from .qpoly import LaurentPoly, _digit, _digits, _modified_kostka_foulkes, _top

MODES = ("polynomial", "numeric")
CONVENTIONS = ("standard", "literal-paper")
DEFAULT_PRIMES = (2, 3)


class StalkConsistencyError(ValueError):
    """The overdetermined stalk system has no common solution."""


class CheckResult:
    """One check's outcome: "fail" if it has a witness, else "pass",
    unless skipped.  Witnesses are kept in canonical order."""

    def __init__(self, name: str, cases: int = 0, witnesses: list[dict] | None = None,
                 skipped: bool = False):
        self.name = name
        self.cases = cases
        self.witnesses = [] if witnesses is None else witnesses
        self.witnesses.sort(key=_witness_key)
        self.skipped = skipped

    @property
    def status(self) -> str:
        if self.skipped:
            return "skipped"
        return "fail" if self.witnesses else "pass"

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "cases": self.cases,
            "witnesses": self.witnesses,
        }


class VerificationReport(NamedTuple):
    params: dict
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def as_dict(self) -> dict:
        return {"params": self.params, "checks": [c.as_dict() for c in self.checks]}


def _modified_charge(budget: Budget, P: Partition, lam: Partition) -> LaurentPoly:
    """The modified charge polynomial at (P, lam), built on the run's first read."""
    if (P, lam) not in budget.charges:
        budget.charges[P, lam] = _modified_kostka_foulkes(P, lam)
    return budget.charges[P, lam]


def _character_side(n: int, d: int, convention: str, budget: Budget):
    """(lam, sorted weight of dv) -> the right side at (lam, dv), for one run.

    q^(flag_dim(dv) - n_stat(1^d)) times the orbit sum over admissible P
    of the modified charge polynomial at (P, lam), read from the run's
    table, weighted by the multiplicity of dv in P's module: that of
    conjugate(P) under the standard convention, of P under literal-paper,
    kept only to show it fails.  Multiplicities and flag_dim ignore dv's order.
    """
    parts = enumerate_partitions(n, d)
    shapes = {P: conjugate(P) if convention == "standard" else P for P in parts}
    base = n_stat((1,) * d)

    def rhs(lam: Partition, weight: Partition) -> LaurentPoly:
        row = {P: _modified_charge(budget, P, lam) for P in parts}
        return _orbit_sum(row, shapes, weight, flag_dim(weight) - base)

    return rhs


def _orbit_sum(stalks: dict, shapes: dict, weight: Partition, shift: int = 0) -> LaurentPoly:
    """q^shift * the sum over P in stalks of stalks[P] * kostka(shapes[P], weight).

    Each orbit's stalk trace times the weight's multiplicity in its module.
    """
    coeffs: dict[int, int] = {}
    for P, stalk in stalks.items():
        m = _kostka(shapes[P], weight)
        if m:
            for e, c in stalk.items():
                coeffs[e + shift] = coeffs.get(e + shift, 0) + m * c
    return LaurentPoly(coeffs)


def _dimvec_classes(n: int, d: int) -> list[tuple[Partition, DimVector, int]]:
    """The dvs of (n, d) by nonzero composition, the key of a fiber, as
    (sorted weight, composition, C(n, k) dvs) for each k-part one, d cut at
    k - 1 points.  Classes come lex decreasing, the order of their first
    dvs in enumerate_dimvecs.
    """
    comps = sorted((_cut(d, cuts) for k in range(min(n, d))
                    for cuts in combinations(range(1, d), k)), reverse=True)
    return [(sorted_weight(c), c, comb(n, len(c))) for c in comps]


def _witness_key(w: dict):
    return (
        tuple(w.get("lambda") or ()),
        tuple(w.get("dimvec") or ()),
        w.get("q", 0),
        tuple(w.get("orbit") or ()),
    )


def _each_pair(name: str, n: int, d: int, cases_per_pair: int, failures) -> CheckResult:
    """A check over every (lam, dv) pair, decided and reported per nonzero composition.

    The one place where that rule is kept: failures(lam, weight, dims, dv)
    runs per class of _dimvec_classes at its composition and its first dv,
    dims padded with zeros, and yields the fields of each failed comparison.
    Every dv of the class counts as cases_per_pair cases, and each failure
    is one witness: its dimvec is that first dv, and it stands for all
    "dvs" of the class, every dv whose nonzero entries, in order, are its own.
    """
    witnesses: list[dict] = []
    cases = 0
    classes = _dimvec_classes(n, d)
    for lam in enumerate_partitions(n, d):
        for weight, dims, size in classes:
            cases += size * cases_per_pair
            dv = dims + (0,) * (n - len(dims))
            witnesses.extend({"lambda": list(lam), "dimvec": list(dv), "dvs": size, **fields}
                             for fields in failures(lam, weight, dims, dv))
    return CheckResult(name, cases, witnesses)


def _trace_identity(n: int, d: int, mode: str, count_primes: list[int], convention: str,
                    budget: Budget) -> CheckResult:
    """The trace identity at every (lam, dv) of (n, d), on run_suite's options.

    Polynomial mode compares the Laurent polynomials exactly, then the
    fiber polynomial with the enumerated count at each prime, one case per
    pair; numeric mode compares the counts with the character side, one
    case per pair and prime.  Both sides depend on dv only through its
    nonzero composition, so _each_pair compares each class once; a right
    side is built once per (lam, weight) and evaluated once per prime.
    One Budget covers every count; a refusal raises BudgetExceeded.
    """
    rhs_at = _character_side(n, d, convention, budget)
    bits = _bits(d)
    # the right side and its values at the primes, per (lam, sorted weight)
    sides: dict[tuple[Partition, Partition], tuple[LaurentPoly, list]] = {}

    def failures(lam, weight, dims, dv):
        if (lam, weight) not in sides:
            rhs = rhs_at(lam, weight)
            sides[lam, weight] = rhs, [rhs(q) for q in count_primes]
        rhs, right_vals = sides[lam, weight]
        if mode == "polynomial":
            lhs = _digits(_fibers(lam, n, budget).get(dims, 0), bits)
            if lhs != rhs:
                yield {"left": lhs.to_text(), "right": rhs.to_text()}
                return
        for q, right_val in zip(count_primes, right_vals):
            left_val = _fiber_count(lam, dv, q, budget)
            if left_val != right_val:
                yield {"q": q, "left": str(left_val), "right": str(right_val)}

    per_pair = 1 if mode == "polynomial" else len(count_primes)
    return _each_pair("trace_identity", n, d, per_pair, failures)


def bootstrap_stalks(n: int, d: int, *,
                     budget=None) -> dict[tuple[Partition, Partition], LaurentPoly]:
    """The stalk traces {(P, lam): t_P(lam)}, solved from normalized fiber polynomials.

    For each lam, the equations over all dimension vectors dv read
    q^(-flag_dim(dv)) * fiber_polynomial(lam, dv) =
    sum over P of t_P(lam) * kostka_number(conjugate(P), dv), the orbit
    sum.  The rows at dv = conjugate(P), one per P, are unitriangular
    and determine the unique solution.  Each sorted weight of at most n
    parts is such a pivot row, where the solution's orbit sum is that
    row's normalized fiber, so the remaining equations hold exactly when
    the normalized fiber of each class equals that of its sorted weight:
    Weyl symmetry, checked once per class of _dimvec_classes, its failure
    raising StalkConsistencyError.
    """
    parts = enumerate_partitions(n, d)
    budget = _as_budget(budget)
    shapes = {P: conjugate(P) for P in parts}
    order = sorted(parts, key=lambda P: shapes[P], reverse=True)
    classes = _dimvec_classes(n, d)
    bits = _bits(d)

    table: dict[tuple[Partition, Partition], LaurentPoly] = {}
    for lam in parts:
        # P's pivot row is conjugate(P)'s class; a class shares its weight's flag_dim
        fibers = _fibers(lam, n, budget)
        solved: dict[Partition, LaurentPoly] = {}
        for P in order:
            # kostka(conj P, conj P) = 1, and each Q after P in order has
            # multiplicity 0 at conj P: the Q solved so far make up the sum
            row = _digits(fibers.get(shapes[P], 0), bits).shift(-flag_dim(shapes[P]))
            solved[P] = row - _orbit_sum(solved, shapes, shapes[P])
        for weight, dims, _ in classes:
            pivot, actual = fibers.get(weight, 0), fibers.get(dims, 0)
            if pivot != actual:
                pivot, actual = (_digits(v, bits).shift(-flag_dim(weight)) for v in (pivot, actual))
                raise StalkConsistencyError(
                    f"stalk system inconsistent at lam={lam}, dv={dims + (0,) * (n - len(dims))}: "
                    f"{pivot.to_text()} != {actual.to_text()}")
        table.update(((P, lam), stalk) for P, stalk in solved.items())
    return table


def verify_stalk_bootstrap(n: int, d: int, *, budget=None) -> tuple[CheckResult, dict | None]:
    """Solve the stalk systems and validate the table invariants.

    Invariants: t_P(lam) vanishes unless P dominates lam, and
    t_P(P) = q^(-orbit_dim(P)/2).
    """
    witnesses: list[dict] = []
    parts = enumerate_partitions(n, d)
    budget = _as_budget(budget)  # a bad budget is refused, not a failed check
    cases = len(parts) * comb(n + d - 1, d)  # consistency equations, one per dv
    try:
        table = bootstrap_stalks(n, d, budget=budget)
    except ValueError as exc:
        return CheckResult("stalk_bootstrap", 0, [{"error": str(exc)}]), None
    for P in parts:
        for lam in parts:
            entry = table[P, lam]
            cases += 1
            if not _dominates(P, lam) and not entry.is_zero:
                witnesses.append({
                    "orbit": list(P),
                    "lambda": list(lam),
                    "value": entry.to_text(),
                    "reason": "support outside the dominance order",
                })
        cases += 1
        expected = LaurentPoly.q_power(-(orbit_dim(P) // 2))
        if table[P, P] != expected:
            witnesses.append({
                "orbit": list(P),
                "lambda": list(P),
                "value": table[P, P].to_text(),
                "reason": f"normalization should be {expected.to_text()}",
            })
    return CheckResult("stalk_bootstrap", cases, witnesses), table


def verify_stalk_hypothesis(table: dict, *, budget=None) -> CheckResult:
    """Compare solved stalk traces with the modified charge polynomials.

    Claim: t_P(lam) = q^(-n_stat(1^d)) * _modified_kostka_foulkes(P, lam),
    with d = |P|, read from the run's charge table.
    """
    witnesses: list[dict] = []
    cases = 0
    budget = _as_budget(budget)
    for (P, lam), value in table.items():
        cases += 1
        expected = _modified_charge(budget, P, lam).shift(-n_stat((1,) * sum(P)))
        if value != expected:
            witnesses.append({
                "orbit": list(P),
                "lambda": list(lam),
                "left": value.to_text(),
                "right": expected.to_text(),
            })
    return CheckResult("stalk_hypothesis", cases, witnesses)


def verify_semismall(n: int, d: int, *, budget=None) -> CheckResult:
    """Degree bounds on every fiber polynomial: deg <= flag_dim(dv) - orbit_dim(lam)/2.

    It implies the nilcone bound (dim N_n - orbit_dim(lam))/2: 2 flag_dim(dv) = d^2 -
    sum dv_i^2 <= dim N_n = d^2 - sum c_j^2, c the most balanced n-part composition of d.
    """
    halves = {lam: orbit_dim(lam) // 2 for lam in enumerate_partitions(n, d)}
    budget = _as_budget(budget)
    bits = _bits(d)

    def failures(lam, weight, dims, dv):
        deg = _top(_fibers(lam, n, budget).get(dims, 0), bits)
        limit = flag_dim(weight) - halves[lam]
        if deg is not None and deg > limit:
            yield {"degree": deg, "bound": limit}

    return _each_pair("semismall", n, d, 1, failures)


def verify_top_components(n: int, d: int, *, budget=None) -> CheckResult:
    """Top coefficients of fiber polynomials against weight multiplicities.

    The coefficient at degree flag_dim(dv) - orbit_dim(lam)/2 must equal
    kostka_number(conjugate(lam), dv): it counts the top-dimensional
    components of the fiber piece.
    """
    tops = {lam: (orbit_dim(lam) // 2, conjugate(lam)) for lam in enumerate_partitions(n, d)}
    budget = _as_budget(budget)
    bits = _bits(d)

    def failures(lam, weight, dims, dv):
        half, shape = tops[lam]
        target = flag_dim(weight) - half
        got = _digit(_fibers(lam, n, budget).get(dims, 0), bits, target)
        want = _kostka(shape, weight)
        if got != want:
            yield {"degree": target, "left": got, "right": want}

    return _each_pair("top_components", n, d, 1, failures)


def verify_schur_weyl(n: int, d: int) -> CheckResult:
    """Dimension bookkeeping for the tensor power of an n-space.

    Sum over admissible P of syt_count(P) * _schur_dim(conjugate(P), n)
    must equal n^d, and each _schur_dim must equal its Kostka weight sum.
    """
    witnesses: list[dict] = []
    cases = 0
    parts, classes = enumerate_partitions(n, d), _dimvec_classes(n, d)  # checks (n, d) first
    total = 0
    for P in parts:
        shape = conjugate(P)
        dim = _schur_dim(shape, n)
        total += syt_count(P) * dim
        cases += 1
        weight_sum = sum(_kostka(shape, weight) * size for weight, _, size in classes)
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
    return CheckResult("schur_weyl", cases, witnesses)


def verify_young_rule(d: int) -> CheckResult:
    """Multiplicity-one and vanishing pattern that pins each shape.

    kostka_number(P, P) = 1 for every partition P of d, and
    kostka_number(P, P') = 0 whenever P strictly refines P'.  The check
    walks each partition's coarsenings: P itself, then every P' made by
    merging parts of P, in lexicographically decreasing order.
    """
    witnesses: list[dict] = []
    cases = 0
    for P in enumerate_partitions(d, d):
        for Q in (P, *sorted(_coarsenings(P) - {P}, reverse=True)):
            cases += 1
            left, right = _kostka(P, Q), int(Q == P)
            if left != right:
                witnesses.append({
                    "lambda": list(P),
                    **({} if Q == P else {"coarser": list(Q)}),
                    "left": left,
                    "right": right,
                })
    return CheckResult("young_rule", cases, witnesses)


def _guarded(name: str, check, *args, **kwargs) -> CheckResult:
    try:
        return check(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        return CheckResult(name, 0, [{"error": str(exc)}])


def run_suite(
    n: int,
    d: int,
    *,
    mode: str = "polynomial",
    primes=None,
    convention: str = "standard",
    budget=None,
) -> VerificationReport:
    """Run every check at (n, d) and assemble a canonical report.

    Checks appear sorted by name; polynomial-only checks are reported as
    skipped in numeric mode.  The report carries no timestamps, so equal
    parameters give byte-identical output.  The budget is the run, whose
    tables the checks share; it caps the subspaces the run enumerates, and
    running out raises BudgetExceeded, as a refusal is no verdict on the
    identities.  Flags are counted at the primes, DEFAULT_PRIMES unless
    given.  A bad mode, convention or prime, like a negative budget,
    raises ValueError before any check runs.
    """
    n, d = check_size(n, d)
    if mode not in MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    primes = list(DEFAULT_PRIMES) if primes is None else [check_prime(q) for q in primes]
    if not primes:
        raise ValueError("need at least one prime")
    for i, q in enumerate(primes):
        if q in primes[:i]:
            raise ValueError(f"prime {q} is given more than once")
    budget = _as_budget(budget)

    checks: list[CheckResult] = []
    checks.append(_guarded("trace_identity", _trace_identity,
                           n, d, mode, primes, convention, budget))

    if mode == "polynomial":
        checks.append(_guarded("semismall", verify_semismall, n, d, budget=budget))
        checks.append(_guarded("top_components", verify_top_components, n, d, budget=budget))
        bootstrap_check, table = verify_stalk_bootstrap(n, d, budget=budget)
        checks.append(bootstrap_check)
        if table is not None:
            checks.append(_guarded("stalk_hypothesis", verify_stalk_hypothesis, table,
                                   budget=budget))
        else:
            checks.append(CheckResult("stalk_hypothesis", skipped=True))
    else:
        for name in ("semismall", "top_components", "stalk_bootstrap", "stalk_hypothesis"):
            checks.append(CheckResult(name, skipped=True))

    checks.append(_guarded("schur_weyl", verify_schur_weyl, n, d))
    checks.append(_guarded("young_rule", verify_young_rule, d))

    params = {
        "n": n,
        "d": d,
        "mode": mode,
        "primes": primes,
        "convention": convention,
    }
    checks.sort(key=lambda c: c.name)
    return VerificationReport(params, checks)
