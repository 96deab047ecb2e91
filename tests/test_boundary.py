"""Input is checked at the package boundary and nowhere behind it."""

import importlib
import pkgutil
from collections import Counter
from functools import partial
from types import ModuleType

import pytest

import nilflag
from nilflag import combinatorics, flaggeo, qpoly, verifier
from nilflag.combinatorics import enumerate_dimvecs, enumerate_partitions
from oracles import CACHES

BAD_PARTITION = (1, 2)  # not weakly decreasing
BAD_DIMVEC = (2, -1, 2)  # a negative entry
BAD_PRIME = 4
NOT_AN_INT = 3.7  # refused, where int() would truncate it to 3

# each exported name that takes a partition, dimension vector or prime,
# with calls that hand it a malformed one
MALFORMED = {
    "fiber_count": [
        lambda f: f(BAD_PARTITION, (1, 1, 1), 2),
        lambda f: f((2, 1), BAD_DIMVEC, 2),
        lambda f: f((2, 1), (1, 1, 1), BAD_PRIME),
        lambda f: f((2, 1), (1, 1, 1), NOT_AN_INT),
    ],
    "fiber_count_brute": [
        lambda f: f(BAD_PARTITION, (1, 1, 1), 2),
        lambda f: f((2, 1), BAD_DIMVEC, 2),
        lambda f: f((2, 1), (1, 1, 1), BAD_PRIME),
    ],
    "fiber_polynomial": [
        lambda f: f(BAD_PARTITION, (1, 1, 1)),
        lambda f: f((2, 1), BAD_DIMVEC),
        lambda f: f("21", "111"),  # not read digit by digit
    ],
    "kostka_foulkes": [lambda f: f(BAD_PARTITION, (1, 1, 1)), lambda f: f((2, 1), BAD_PARTITION)],
    "kostka_number": [
        lambda f: f(BAD_PARTITION, (1, 1, 1)),
        lambda f: f((2, 1), BAD_DIMVEC),
        lambda f: f((2.9, 1), (1, 1, 1)),
    ],
    "run_suite": [lambda f: f(2, 3, primes=[BAD_PRIME])],
}

# other malformed input that the boundary rejects, one call each
REJECTED = {
    "Budget non-integer limit": lambda: nilflag.Budget(10.9),
    "fiber_count_brute sizes differ": lambda: nilflag.fiber_count_brute((2, 1), (1, 1), 2),
    "verify_young_rule d=0": lambda: nilflag.verify_young_rule(0),
}
# the exports over (n, d)
SIZED = ("verify_semismall", "verify_top_components", "verify_schur_weyl",
         "verify_stalk_bootstrap", "bootstrap_stalks", "run_suite",
         "enumerate_dimvecs", "enumerate_partitions")
SIZED_CALLS = {name: getattr(nilflag, name) for name in SIZED}
# the trace identity check, which only run_suite reaches, given the options
# that only it reads and a bad prime: its size is still refused first, as
# in `verify --n 0 --d 3 --mode numeric --primes 4`
SIZED_CALLS["verify_trace_identity"] = partial(
    nilflag.run_suite, mode="numeric", primes=[BAD_PRIME])
# each check refuses n = 0 and d = 0 rather than report a failed check, and
# the refusal names the values: case -> (name, n, d)
ND_REFUSALS = {
    f"{name} n={n} d={d}": (name, n, d)
    for name in ("verify_trace_identity", *SIZED[:6])
    for n, d in ((0, 3), (3, 0))
}
ND_REFUSALS.update({
    "enumerate_dimvecs n=0": ("enumerate_dimvecs", 0, 2),
    "enumerate_partitions n=0": ("enumerate_partitions", 0, 2),
})
REJECTED.update({
    case: partial(SIZED_CALLS[name], n, d) for case, (name, n, d) in ND_REFUSALS.items()
})
# a size that is not an int is refused as such, not truncated, compared or
# passed on to fail deeper down
NON_INTEGER_SIZES = {
    f"{name} n={n!r} d={d!r}": partial(call, n, d)
    for name, call in SIZED_CALLS.items()
    for n, d in ((2.5, 3), (3, "3"))
}
NON_INTEGER_SIZES["verify_young_rule d=3.5"] = partial(nilflag.verify_young_rule, 3.5)
REJECTED.update(NON_INTEGER_SIZES)

# run_suite checks a run's mode, convention, primes and budget, each once
# and before any check runs: case -> (options, refusal text)
RUN_SUITE_REFUSALS = {
    "mode": ({"mode": "exact"}, "mode must be 'polynomial' or 'numeric'"),
    "convention": ({"convention": "mirror"},
                   "convention must be one of ('standard', 'literal-paper')"),
    "bad prime": ({"primes": [BAD_PRIME]}, "4 is not prime"),
    "repeated prime": ({"primes": [2, 3, 2]}, "prime 2 is given more than once"),
    "no prime": ({"primes": []}, "need at least one prime"),
    "negative budget": ({"budget": -3}, "budget must be non-negative"),
}

# exported names that take none of the three
TAKES_NONE = {
    "Budget", "BudgetExceeded", "LaurentPoly", "StalkConsistencyError", "bootstrap_stalks",
    "enumerate_dimvecs", "enumerate_partitions", "parse_parts", "verify_schur_weyl",
    "verify_semismall", "verify_stalk_bootstrap", "verify_stalk_hypothesis",
    "verify_top_components", "verify_young_rule",
}


def test_every_export_is_classified():
    exported = {name for name, value in vars(nilflag).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert set(MALFORMED) | TAKES_NONE == exported
    assert not set(MALFORMED) & TAKES_NONE
    assert len(exported) == 20


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_exports_reject_malformed_input(name):
    for call in MALFORMED[name]:
        with pytest.raises(ValueError):
            call(getattr(nilflag, name))


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_boundary_rejects(case):
    with pytest.raises(ValueError):
        REJECTED[case]()


@pytest.mark.parametrize("case", sorted(ND_REFUSALS))
def test_nd_refusals_name_the_values(case):
    _, n, d = ND_REFUSALS[case]
    with pytest.raises(ValueError, match=f"got n={n}, d={d}$"):
        REJECTED[case]()


@pytest.mark.parametrize("case", sorted(NON_INTEGER_SIZES))
def test_non_integer_sizes_are_refused(case):
    with pytest.raises(ValueError, match="^not an integer: "):
        REJECTED[case]()


@pytest.mark.parametrize("case", sorted(RUN_SUITE_REFUSALS))
def test_run_suite_refuses_bad_options_by_text(case):
    options, text = RUN_SUITE_REFUSALS[case]
    with pytest.raises(ValueError) as refused:
        nilflag.run_suite(2, 2, **options)
    assert str(refused.value) == text


# each check that reads a run's tables refuses a bad budget by text, as
# run_suite does, rather than report it as a failed check
BUDGET_READERS = {
    "verify_semismall": partial(nilflag.verify_semismall, 2, 2),
    "verify_stalk_bootstrap": partial(nilflag.verify_stalk_bootstrap, 2, 2),
    "verify_stalk_hypothesis": lambda **kwargs: nilflag.verify_stalk_hypothesis(
        nilflag.bootstrap_stalks(2, 2), **kwargs),
    "verify_top_components": partial(nilflag.verify_top_components, 2, 2),
}
BAD_BUDGETS = {"x": "not an integer: 'x'", -1: "budget must be non-negative",
               2.5: "not an integer: 2.5"}


@pytest.mark.parametrize("reader", sorted(BUDGET_READERS))
@pytest.mark.parametrize("budget", list(BAD_BUDGETS), ids=repr)
def test_readers_refuse_a_bad_budget_by_text(reader, budget):
    with pytest.raises(ValueError) as refused:
        BUDGET_READERS[reader](budget=budget)
    assert str(refused.value) == BAD_BUDGETS[budget]


def test_non_integers_are_refused_by_name():
    with pytest.raises(ValueError, match=r"^not an integer: 3\.7$"):
        nilflag.fiber_count((2, 1), (1, 1, 1), NOT_AN_INT)
    with pytest.raises(ValueError, match="^not an integer: '2'$"):
        nilflag.fiber_polynomial("21", "111")


def count_checks(monkeypatch, names) -> Counter:
    """Calls of each named check, counted in every module that binds it."""
    calls: Counter = Counter()

    def counted(name, check):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return check(*args, **kwargs)
        return wrapper

    for module in (combinatorics, flaggeo, qpoly, verifier):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_no_input_checks_per_case(monkeypatch):
    calls = count_checks(monkeypatch, ("check_partition", "check_dimvec", "check_prime"))
    # the first run fills the budget's count memo, so the second enumerates
    # nothing and every check it makes is a check of its input
    budget = flaggeo.Budget()
    verifier.run_suite(3, 5, mode="numeric", primes=[2, 3], budget=budget)
    calls.clear()
    report = verifier.run_suite(3, 5, mode="numeric", primes=[2, 3], budget=budget)
    assert report.ok
    pairs = len(enumerate_partitions(3, 5)) * len(enumerate_dimvecs(3, 5))
    assert calls["check_prime"] == 2  # each given prime, once per run
    assert max(calls.values()) < pairs, calls


def test_brute_oracle_checks_only_its_input(monkeypatch):
    # the oracle's loop reduces the vectors it computed without checking them
    lam, dimvec, p = (2, 1, 1, 1), (1, 2, 2), 3
    expected = nilflag.fiber_count(lam, dimvec, p)
    calls = count_checks(monkeypatch, ("check_int",))
    assert nilflag.fiber_count_brute(lam, dimvec, p) == expected
    assert 0 < calls["check_int"] <= len(lam) + len(dimvec) + 1, calls


def test_caches_names_every_cache():
    # the cold runs clear CACHES, so every @cache table in the package is in it
    found = {value for info in pkgutil.iter_modules(nilflag.__path__)
             for value in vars(importlib.import_module(f"nilflag.{info.name}")).values()
             if hasattr(value, "cache_clear")}
    assert len(set(CACHES)) == len(CACHES)
    assert set(CACHES) == found


def test_checked_entry_points_are_not_called_inside_a_run(monkeypatch):
    # a run calls the unchecked bodies; the checked names behind the
    # boundary are never reached, even with the caches cold
    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called inside a run")
        return call

    for module in (nilflag, combinatorics, flaggeo, qpoly, verifier):
        for name in ("kostka_number", "kostka_foulkes", "fiber_count", "fiber_polynomial"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused(name))
    for cached in CACHES:
        cached.cache_clear()
    for mode in ("polynomial", "numeric"):
        assert verifier.run_suite(3, 5, mode=mode).ok, mode
