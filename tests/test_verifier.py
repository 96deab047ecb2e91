import json
from math import comb

import pytest

from nilflag import cli, combinatorics, flaggeo, verifier
from nilflag.combinatorics import (
    conjugate,
    enumerate_dimvecs,
    enumerate_partitions,
    flag_dim,
    n_stat,
    orbit_dim,
    sorted_weight,
)
from nilflag.flaggeo import Budget, fiber_count, fiber_polynomial
from nilflag.qpoly import LaurentPoly, _digits, _modified_kostka_foulkes
from nilflag.verifier import (
    DEFAULT_PRIMES,
    _character_side,
    bootstrap_stalks,
    run_suite,
    verify_schur_weyl,
    verify_semismall,
    verify_stalk_bootstrap,
    verify_stalk_hypothesis,
    verify_top_components,
    verify_young_rule,
)
from oracles import (
    CACHES,
    dimvec_classes_by_grouping,
    expand_witnesses,
    gauss_poly,
    refines_by_packing,
    rhs_by_definition,
)


def trace_identity_check(n, d, *, mode="polynomial", primes=DEFAULT_PRIMES,
                         convention="standard", budget=None):
    """The trace identity check alone, on options that run_suite accepts."""
    return verifier._trace_identity(n, d, mode, list(primes), convention, budget or Budget())


class TestTraceIdentityRhs:
    def test_worked_pairs(self):
        rhs = _character_side(2, 2, "standard", Budget())
        assert rhs((1, 1), (1, 1)) == LaurentPoly({1: 1, 0: 1})
        assert rhs((2,), (2,)) == LaurentPoly()
        rhs = _character_side(3, 3, "standard", Budget())
        assert rhs((2, 1), (1, 1, 1)) == LaurentPoly({1: 2, 0: 1})

    def test_bad_convention(self, monkeypatch):
        # run_suite refuses a convention before the right side is built
        def built(*args):
            raise AssertionError("right side built")

        monkeypatch.setattr(verifier, "_character_side", built)
        for convention in ("other", "Standard", None):
            with pytest.raises(ValueError, match=r"^convention must be one of "):
                run_suite(2, 2, convention=convention)

    def test_depends_on_dv_only_through_its_weight(self):
        # the right side at dv's sorted weight against the tableaux of dv itself
        for convention in ("standard", "literal-paper"):
            for n in range(1, 5):
                for d in range(1, 6):
                    rhs = _character_side(n, d, convention, Budget())
                    for lam in enumerate_partitions(n, d):
                        for dv in enumerate_dimvecs(n, d):
                            assert rhs(lam, sorted_weight(dv)) == rhs_by_definition(
                                n, d, lam, dv, convention), (convention, lam, dv)


class TestTraceIdentity:
    def test_polynomial_mode_small_grid(self):
        for n, d in [(2, 2), (2, 3), (3, 3), (2, 4)]:
            result = trace_identity_check(n, d)
            assert result.status == "pass", (n, d, result.witnesses[:2])
            pairs = len(enumerate_partitions(n, d)) * len(enumerate_dimvecs(n, d))
            assert result.cases == pairs

    def test_numeric_mode(self):
        result = trace_identity_check(3, 4, mode="numeric", primes=[2, 3])
        assert result.status == "pass"
        pairs = len(enumerate_partitions(3, 4)) * len(enumerate_dimvecs(3, 4))
        assert result.cases == pairs * 2

    def test_numeric_six_six_enumerates_4201_subspaces(self):
        # the enumeration's work at numeric (6,6), primes 2 and 3: the run's
        # budget is charged for exactly the subspaces the tally walks.
        # 4201 is [ell; d1]_p summed over the 132 tallies (lambda, d1, p)
        # the recursion reaches, 66 per prime: 698 at p = 2 and 3503 at
        # p = 3.  Zero jumps are dropped, so no tally has d1 = 0.
        budget = Budget()
        before = flaggeo.STATS["subspaces"]
        result = trace_identity_check(6, 6, mode="numeric", primes=[2, 3], budget=budget)
        assert result.status == "pass"
        assert budget.used == 4201
        assert flaggeo.STATS["subspaces"] - before == 4201
        assert len(budget.tally) == 132
        assert all(d1 >= 1 for _, d1, _ in budget.tally)
        assert 4201 == sum(gauss_poly(len(lam), d1)(p) for lam, d1, p in budget.tally)

    def test_fiber_counted_once_per_nonzero_composition(self, monkeypatch):
        # numeric (6,6) at p = 2, 3: 462 dvs fall into 32 nonzero
        # compositions, so 11 lambdas make 11 * 32 * 2 = 704 counts, while
        # every dv and prime is still a case and the charge is unchanged
        calls = []
        count = verifier._fiber_count

        def counted(lam, dv, q, budget):
            calls.append((lam, dv, q))
            return count(lam, dv, q, budget)

        monkeypatch.setattr(verifier, "_fiber_count", counted)
        budget = Budget()
        result = trace_identity_check(6, 6, mode="numeric", primes=[2, 3], budget=budget)
        assert result.status == "pass"
        assert result.cases == 11 * 462 * 2
        assert len(calls) == len(set(calls)) == 704
        assert budget.used == 4201
        assert len(budget.tally) == 132

    def test_character_side_once_per_weight_class(self, monkeypatch):
        calls = []
        character_side = verifier._character_side

        def counted(n, d, convention, budget):
            rhs = character_side(n, d, convention, budget)

            def rhs_counted(lam, weight):
                calls.append((lam, weight))
                return rhs(lam, weight)

            return rhs_counted

        monkeypatch.setattr(verifier, "_character_side", counted)
        for n, d, classes in [(4, 5, 36), (3, 5, 25)]:
            calls.clear()
            result = trace_identity_check(n, d)
            assert result.status == "pass"
            pairs = len(enumerate_partitions(n, d)) * len(enumerate_dimvecs(n, d))
            assert result.cases == pairs
            assert len(calls) == len(set(calls)) == classes

    def test_literal_paper_pairing_fails_with_witness(self):
        result = trace_identity_check(2, 2, convention="literal-paper")
        assert result.status == "fail"
        witnesses = {(tuple(w["lambda"]), tuple(w["dimvec"])) for w in result.witnesses}
        assert ((2,), (2, 0)) in witnesses
        # and the repaired pairing passes
        assert trace_identity_check(2, 2).status == "pass"

    @pytest.mark.parametrize("n,d,mode", [(3, 4, "polynomial"), (3, 4, "numeric"),
                                          (4, 5, "numeric")])
    def test_one_witness_per_failing_class(self, n, d, mode):
        # the literal-paper pairing fails; expanded into its dvs, the one
        # witness per failing class names exactly the (lam, dv, q) that fail
        # when fiber_count meets the character side's definition dv by dv
        primes = [2, 3]
        result = trace_identity_check(n, d, mode=mode, primes=primes,
                                      convention="literal-paper")
        failing = set()
        for lam in enumerate_partitions(n, d):
            for dv in enumerate_dimvecs(n, d):
                rhs = rhs_by_definition(n, d, lam, dv, "literal-paper")
                if mode == "polynomial" and fiber_polynomial(lam, dv) != rhs:
                    failing.add((lam, dv, None))
                else:
                    failing |= {(lam, dv, q) for q in primes if fiber_count(lam, dv, q) != rhs(q)}
        assert failing
        expanded = expand_witnesses(n, result.witnesses)
        assert len(expanded) == len(failing)
        assert {(*_pair(w), w.get("q")) for w in expanded} == failing
        for w in result.witnesses:
            assert w["dvs"] == comb(n, sum(1 for x in w["dimvec"] if x))
        classes = verifier._dimvec_classes(n, d)
        assert len(result.witnesses) <= len(enumerate_partitions(n, d)) * len(classes) * len(primes)


class TestDimvecClasses:
    def test_against_the_grouped_enumeration(self):
        # the walk over compositions against enumerate_dimvecs grouped by
        # nonzero composition: weights, first dvs, sizes and order
        for n in range(1, 7):
            for d in range(1, 8):
                grouped = dimvec_classes_by_grouping(n, d)
                classes = verifier._dimvec_classes(n, d)
                assert [weight for weight, _, _ in classes] == [weight for weight, _ in grouped]
                assert [dims + (0,) * (n - len(dims)) for _, dims, _ in classes] == [
                    dvs[0] for _, dvs in grouped]
                assert [size for _, _, size in classes] == [len(dvs) for _, dvs in grouped]

    def test_twelve_twelve(self):
        classes = verifier._dimvec_classes(12, 12)
        assert len(classes) == 2**11
        assert sum(size for _, _, size in classes) == comb(23, 12) == 1_352_078


def test_no_check_enumerates_dimvecs(monkeypatch):
    # every check walks the nonzero compositions; none builds the dv list
    def refused(n, d):
        raise AssertionError(f"enumerate_dimvecs({n}, {d}) called by a check")

    for module in (combinatorics, verifier):
        monkeypatch.setattr(module, "enumerate_dimvecs", refused, raising=False)
    for mode in ("polynomial", "numeric"):
        assert run_suite(4, 5, mode=mode).ok
    check, table = verify_stalk_bootstrap(4, 5)
    assert check.status == "pass" and table is not None
    assert verify_schur_weyl(4, 5).status == "pass"


class TestBootstrap:
    def test_two_by_two_table(self):
        table = bootstrap_stalks(2, 2)
        assert table[(2,), (2,)] == LaurentPoly({-1: 1})
        assert table[(2,), (1, 1)] == LaurentPoly({-1: 1})
        assert table[(1, 1), (1, 1)] == LaurentPoly({0: 1})
        assert table[(1, 1), (2,)] == LaurentPoly()

    def test_two_by_three_table(self):
        table = bootstrap_stalks(2, 3)
        assert table[(2, 1), (2, 1)] == LaurentPoly({-2: 1})
        assert table[(2, 1), (1, 1, 1)] == LaurentPoly({-1: 1, -2: 1})
        assert table[(1, 1, 1), (1, 1, 1)] == LaurentPoly({0: 1})

    def test_invariants_and_hypothesis(self):
        for n in range(1, 4):
            for d in range(1, 5):
                check, table = verify_stalk_bootstrap(n, d)
                assert check.status == "pass", (n, d, check.witnesses[:2])
                assert table is not None
                hyp = verify_stalk_hypothesis(table)
                assert hyp.status == "pass", (n, d, hyp.witnesses[:2])
                shift = n_stat((1,) * d)
                for P in enumerate_partitions(n, d):
                    assert table[P, P] == LaurentPoly({-(orbit_dim(P) // 2): 1})
                    for lam in enumerate_partitions(n, d):
                        expected = _modified_kostka_foulkes(P, lam).shift(-shift)
                        assert table[P, lam] == expected

    @pytest.mark.parametrize("n, d", [(3, 6), (4, 7), (5, 5), (6, 6)])
    def test_orbit_sum_at_each_weight_is_its_pivot_row(self, n, d):
        # every sorted weight is the pivot row of some P, so the solved
        # stalks' orbit sum there is that weight's normalized fiber: the
        # identity the consistency check leans on to compare classes
        table = bootstrap_stalks(n, d)
        parts = enumerate_partitions(n, d)
        shapes = {P: conjugate(P) for P in parts}
        for lam in parts:
            solved = {P: table[P, lam] for P in parts}
            for weight in {weight for weight, _, _ in verifier._dimvec_classes(n, d)}:
                normalized = fiber_polynomial(lam, weight).shift(-flag_dim(weight))
                assert verifier._orbit_sum(solved, shapes, weight) == normalized, (lam, weight)


class TestDegreeChecks:
    def test_semismall(self):
        for n, d in [(2, 2), (2, 3), (3, 3), (3, 4)]:
            assert verify_semismall(n, d).status == "pass"
        # the worked degrees behind the check
        assert fiber_polynomial((1, 1), (1, 1)).degree() == 1
        assert fiber_polynomial((2, 1), (1, 1, 1)).degree() == 1
        assert fiber_polynomial((1, 1, 1), (3, 0)).degree() == 0

    def test_top_components(self):
        for n, d in [(2, 2), (2, 3), (3, 3), (3, 4)]:
            assert verify_top_components(n, d).status == "pass"
        assert fiber_polynomial((1, 1, 1), (2, 1)).coeff(2) == 1
        assert fiber_polynomial((2, 1), (1, 1, 1)).coeff(1) == 2
        assert fiber_polynomial((1, 1, 1), (3, 0)).coeff(0) == 1

    def test_one_walk_per_lambda_and_one_read_per_class(self, monkeypatch):
        # (4,5): 6 lambdas, each walked once, and 15 nonzero compositions
        # make 90 fiber reads, while each of the 6 * 56 pairs is still a case
        walks, reads = [], []
        bits, fibers_of = flaggeo._bits, verifier._fibers

        class Read(dict):
            def get(self, dims, default=None):
                reads.append((self.lam, dims))
                return super().get(dims, default)

        def walked(d):  # a walk takes its B once, and nothing else in flaggeo runs
            walks.append(d)
            return bits(d)

        def counted(lam, n, budget):
            fibers = Read(fibers_of(lam, n, budget))
            fibers.lam = lam
            return fibers

        monkeypatch.setattr(flaggeo, "_bits", walked)
        monkeypatch.setattr(verifier, "_fibers", counted)
        for n, d, lams, polys, cases in [(4, 5, 6, 90, 336), (3, 5, 5, 55, 105)]:
            for check in (verify_semismall, verify_top_components):
                walks.clear()
                reads.clear()
                result = check(n, d)
                assert result.status == "pass"
                assert result.cases == cases
                assert walks == [d] * lams
                assert len(reads) == len(set(reads)) == polys
                assert {lam for lam, _ in reads} == set(enumerate_partitions(n, d))


class TestDimensionChecks:
    def test_schur_weyl_values(self):
        for n, d in [(2, 2), (2, 3), (3, 3), (4, 5), (7, 3), (2, 8), (8, 8)]:
            assert verify_schur_weyl(n, d).status == "pass"

    def test_young_rule(self):
        for d in range(1, 11):
            assert verify_young_rule(d).status == "pass"

    @pytest.mark.parametrize("d, cases", [(5, 26), (6, 55), (12, 1873), (14, 5308)])
    def test_young_rule_cases(self, d, cases):
        # one diagonal case per partition of d, one per strict refinement
        parts = enumerate_partitions(d, d)
        strict = sum(refines_by_packing(P, Q) for P in parts for Q in parts)
        assert verify_young_rule(d).cases == cases == len(parts) + strict


class TestSuite:
    def test_full_polynomial_suite(self):
        report = run_suite(2, 3)
        assert report.ok
        names = [c.name for c in report.checks]
        assert names == sorted(names)
        assert set(names) == {
            "schur_weyl",
            "semismall",
            "stalk_bootstrap",
            "stalk_hypothesis",
            "top_components",
            "trace_identity",
            "young_rule",
        }
        assert report.params == {
            "n": 2,
            "d": 3,
            "mode": "polynomial",
            "primes": [2, 3],
            "convention": "standard",
        }

    def test_numeric_suite_skips_polynomial_checks(self):
        report = run_suite(2, 4, mode="numeric", primes=[2, 3])
        assert report.ok
        status = {c.name: c.status for c in report.checks}
        assert status["trace_identity"] == "pass"
        for name in ("semismall", "top_components", "stalk_bootstrap", "stalk_hypothesis"):
            assert status[name] == "skipped"
        assert report.params["primes"] == [2, 3]

    def test_literal_convention_suite_fails(self):
        report = run_suite(2, 2, convention="literal-paper")
        assert not report.ok
        trace = next(c for c in report.checks if c.name == "trace_identity")
        assert trace.status == "fail"
        witnesses = {(tuple(w["lambda"]), tuple(w["dimvec"])) for w in trace.witnesses}
        assert ((2,), (2, 0)) in witnesses

    def test_report_schema_and_determinism(self, capsys):
        assert cli.run(["verify", "--n", "3", "--d", "3"]) == cli.EXIT_OK
        first = capsys.readouterr().out
        assert cli.run(["verify", "--n", "3", "--d", "3"]) == cli.EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert set(payload) == {"params", "checks"}
        for check in payload["checks"]:
            assert set(check) == {"name", "status", "cases", "witnesses"}
            assert check["status"] in ("pass", "fail", "skipped")

    def test_primes_are_count_primes_in_both_modes(self):
        for mode in ("polynomial", "numeric"):
            report = run_suite(2, 3, mode=mode, primes=[5, 7])
            assert report.ok
            assert report.params["primes"] == [5, 7]
        with pytest.raises(ValueError):
            run_suite(2, 3, primes=[4])
        with pytest.raises(ValueError):
            run_suite(2, 3, primes=[])
        for mode in ("polynomial", "numeric"):
            with pytest.raises(ValueError, match="prime 2 is given more than once"):
                run_suite(2, 3, mode=mode, primes=[2, 3, 2])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            run_suite(0, 2)
        with pytest.raises(ValueError):
            run_suite(2, 2, mode="exact")
        with pytest.raises(ValueError):
            run_suite(2, 2, convention="mirror")


def _pair(w):
    return tuple(w["lambda"]), tuple(w["dimvec"])


def _failed(result, keys):
    """The witnesses of a failed check, each with exactly the given keys."""
    assert result.status == "fail", result.name
    assert result.witnesses
    for w in result.witnesses:
        assert set(w) == set(keys), w
    return result.witnesses


class TestFailureBranches:
    """Each check reports a witness when one side is made wrong."""

    def test_semismall_and_top_components(self, monkeypatch):
        # every pair fails semismall, and top_components wherever the
        # multiplicity is nonzero; at (4,6) a class spreads over up to 4
        # positions, and each (lam, class) is still one witness, at the
        # class's first dv, carrying the class size
        for n, d in [(2, 3), (4, 6)]:
            q_100 = {dims: 1 << 100 * flaggeo._bits(d)  # q^100, at q = 2^B
                     for _, dims, _ in verifier._dimvec_classes(n, d)}
            monkeypatch.setattr(verifier, "_fibers", lambda lam, n, budget: q_100)
            firsts = {(lam, dims + (0,) * (n - len(dims))): (weight, size)
                      for lam in enumerate_partitions(n, d)
                      for weight, dims, size in verifier._dimvec_classes(n, d)}
            result = verify_semismall(n, d)
            witnesses = _failed(result, {"lambda", "dimvec", "dvs", "degree", "bound"})
            assert all(w["degree"] == 100 for w in witnesses)
            assert sorted(_pair(w) for w in witnesses) == sorted(firsts)
            assert all(w["dvs"] == firsts[_pair(w)][1] for w in witnesses)
            assert sum(w["dvs"] for w in witnesses) == result.cases
            witnesses = _failed(verify_top_components(n, d),
                                {"lambda", "dimvec", "dvs", "degree", "left", "right"})
            assert all(w["left"] == 0 != w["right"] for w in witnesses)
            assert sorted(_pair(w) for w in witnesses) == sorted(
                (lam, dv) for (lam, dv), (weight, _) in firsts.items()
                if verifier._kostka(conjugate(lam), weight))

    def test_stalk_hypothesis(self, monkeypatch):
        table = bootstrap_stalks(2, 3)
        real = verifier._modified_kostka_foulkes
        monkeypatch.setattr(verifier, "_modified_kostka_foulkes",
                            lambda P, lam: real(P, lam) + 1)
        result = verify_stalk_hypothesis(table)
        witnesses = _failed(result, {"orbit", "lambda", "left", "right"})
        assert len(witnesses) == result.cases == len(table)

    def test_stalk_bootstrap_support_and_normalization(self, monkeypatch):
        # counts that make every stalk trace t_P(lam) equal to 1
        n, d = 2, 2
        parts = enumerate_partitions(n, d)
        bits = flaggeo._bits(d)

        def fake(lam, n, budget):
            # q^flag_dim(dv) times the multiplicities summed over P, at q = 2^B
            return {dims: sum(verifier._kostka(conjugate(P), weight) for P in parts)
                    << bits * flag_dim(dims)
                    for weight, dims, _ in verifier._dimvec_classes(n, d)}

        monkeypatch.setattr(verifier, "_fibers", fake)
        check, table = verify_stalk_bootstrap(n, d)
        assert all(v == 1 for v in table.values())
        witnesses = _failed(check, {"orbit", "lambda", "value", "reason"})
        support = [(w["orbit"], w["lambda"]) for w in witnesses
                   if w["reason"] == "support outside the dominance order"]
        assert support == [([1, 1], [2])]
        normalization = [w["orbit"] for w in witnesses
                         if w["reason"] == "normalization should be q^-1"]
        assert normalization == [[2]]
        assert len(witnesses) == 2

    def test_inconsistent_stalk_system_skips_the_hypothesis(self, monkeypatch):
        # (1,2) is no pivot row of the (2,3) system, nor the nonzero
        # composition of one, so changing its count leaves the solved table
        # unable to predict it
        real = verifier._fibers

        def off_at_one_two(lam, n, budget):
            fibers = dict(real(lam, n, budget))
            fibers[1, 2] = fibers.get((1, 2), 0) + 1  # the fiber plus 1
            return fibers

        monkeypatch.setattr(verifier, "_fibers", off_at_one_two)
        check, table = verify_stalk_bootstrap(2, 3)
        assert table is None and check.cases == 0
        [witness] = _failed(check, {"error"})
        assert "stalk system inconsistent" in witness["error"]
        assert "dv=(1, 2)" in witness["error"]
        status = {c.name: c.status for c in run_suite(2, 3).checks}
        assert status["stalk_bootstrap"] == "fail"
        assert status["stalk_hypothesis"] == "skipped"

    def test_guarded_error_witness(self, monkeypatch):
        def broken(lam, n, budget):
            raise ValueError("no polynomial")

        monkeypatch.setattr(verifier, "_fibers", broken)
        report = run_suite(2, 2)
        assert not report.ok
        checks = {c.name: c for c in report.checks}
        for name in ("trace_identity", "semismall", "top_components"):
            assert _failed(checks[name], {"error"}) == [{"error": "no polynomial"}]
            assert checks[name].cases == 0
        assert checks["stalk_hypothesis"].status == "skipped"
        assert checks["schur_weyl"].status == checks["young_rule"].status == "pass"

    def test_schur_weyl_weight_sum(self, monkeypatch):
        monkeypatch.setattr(verifier, "_kostka", lambda shape, weight: 0)
        witnesses = _failed(verify_schur_weyl(2, 3), {"lambda", "left", "right", "reason"})
        assert len(witnesses) == len(enumerate_partitions(2, 3))
        assert all(w["right"] == 0 for w in witnesses)

    def test_schur_weyl_tensor_power(self, monkeypatch):
        real = verifier._schur_dim
        monkeypatch.setattr(verifier, "_schur_dim", lambda shape, n: real(shape, n) + 1)
        result = verify_schur_weyl(2, 3)
        assert result.status == "fail"
        [total] = [w for w in result.witnesses if "lambda" not in w]
        assert total == {"left": 8 + 1 + 2, "right": 8,
                         "reason": "tensor-power dimension sum"}

    def test_young_rule(self, monkeypatch):
        monkeypatch.setattr(verifier, "_kostka", lambda P, Q: 2)
        result = verify_young_rule(3)
        assert result.status == "fail"
        diagonal = [w for w in result.witnesses if "coarser" not in w]
        assert diagonal and all(set(w) == {"lambda", "left", "right"} and w["left"] == 2
                                for w in diagonal)
        refining = [w for w in result.witnesses if "coarser" in w]
        assert refining and all(set(w) == {"lambda", "coarser", "left", "right"}
                                and w["right"] == 0 for w in refining)

    def test_young_rule_witness_order(self, monkeypatch):
        # each partition's diagonal witness first, then its coarsenings in
        # lexicographically decreasing order
        real = verifier._kostka
        wrong = {((3, 2, 1), (3, 2, 1)): 2, ((3, 2, 1), (5, 1)): 1, ((3, 2, 1), (3, 3)): 1}
        monkeypatch.setattr(verifier, "_kostka", lambda P, Q: wrong.get((P, Q), real(P, Q)))
        result = verify_young_rule(6)
        expected = [
            {"lambda": [3, 2, 1], "left": 2, "right": 1},
            {"lambda": [3, 2, 1], "coarser": [5, 1], "left": 1, "right": 0},
            {"lambda": [3, 2, 1], "coarser": [3, 3], "left": 1, "right": 0},
        ]
        assert result.cases == 55
        assert result.witnesses == expected
        assert [list(w) for w in result.witnesses] == [list(w) for w in expected]

    @pytest.mark.parametrize("mode", ["polynomial", "numeric"])
    def test_trace_identity_count_witness(self, monkeypatch, mode):
        # counts at the primes one too big; in polynomial mode the fiber
        # polynomials still agree with the character side, so only the
        # counts differ, at every pair and prime
        real = verifier._fiber_count
        monkeypatch.setattr(verifier, "_fiber_count",
                            lambda lam, dv, q, budget: real(lam, dv, q, budget) + 1)
        result = trace_identity_check(2, 2, mode=mode, primes=[2, 3])
        witnesses = _failed(result, {"lambda", "dimvec", "dvs", "q", "left", "right"})
        assert {w["q"] for w in witnesses} == {2, 3}
        assert all(int(w["left"]) == int(w["right"]) + 1 for w in witnesses)
        assert len(witnesses) == 2 * len(enumerate_partitions(2, 2)) * 2  # 2 classes


def test_a_run_multiplies_no_two_polynomials(monkeypatch):
    # count polynomials are read from ints, so a polynomial run with cold
    # caches multiplies a LaurentPoly by ints only
    times = LaurentPoly.__mul__

    def int_only(self, other):
        if isinstance(other, LaurentPoly):
            raise AssertionError(f"{self!r} * {other!r} inside a run")
        return times(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", int_only)
    for cached in CACHES:
        cached.cache_clear()
    assert run_suite(4, 5, mode="polynomial").ok


def test_a_run_holds_one_lambdas_fibers():
    # a run's Budget holds the last lambda's walk and no other: two runs
    # end on equal walks, and neither reads what the other filled
    budgets = Budget(), Budget()
    reports = [run_suite(4, 5, budget=budget).as_dict() for budget in budgets]
    assert reports[0] == reports[1]
    last = ((1,) * 5, 4)
    assert budgets[0].fibers == budgets[1].fibers == (last, flaggeo._fibers(*last, Budget()))
    # a read fills only the Budget it is given, and at d = 1 its q = 2^B = 2
    # keys no entry of the memo at the prime 2; the next lambda replaces it
    for lam, dv in [((3, 2), (2, 2, 1)), ((1,), (1,))]:
        given, other = Budget(), Budget()
        fibers = flaggeo._fibers(lam, len(dv), given)
        assert _digits(fibers[dv], flaggeo._bits(sum(lam))) == fiber_polynomial(lam, dv)
        assert given.fibers == ((lam, len(dv)), fibers)
        assert not given.memo and not given.tally
        assert not (other.fibers[1] or other.memo or other.tally)
        flaggeo._fibers((2, 1, 1, 1), 3, given)
        assert given.fibers[0] == ((2, 1, 1, 1), 3)


@pytest.mark.parametrize("n, d, builds", [(3, 7, 64), (7, 7, 225)])
def test_a_run_builds_each_charge_polynomial_once(monkeypatch, n, d, builds):
    # the trace identity's right side and stalk_hypothesis read one charge
    # table on the run's Budget: one build per (P, lam), 64 at (3,7) and
    # 225 at (7,7), where each reader building its own made twice as many
    calls = []
    real = verifier._modified_kostka_foulkes

    def counted(P, lam):
        calls.append((P, lam))
        return real(P, lam)

    monkeypatch.setattr(verifier, "_modified_kostka_foulkes", counted)
    budget = Budget()
    assert run_suite(n, d, budget=budget).ok
    parts = enumerate_partitions(n, d)
    assert len(calls) == len(set(calls)) == len(budget.charges) == len(parts) ** 2 == builds


def test_both_charge_readers_read_the_run_table(monkeypatch):
    # a run whose charge table is seeded one too big, and which builds
    # nothing itself, fails both checks that read it and no other
    def refused(P, lam):
        raise AssertionError(f"charge polynomial at {(P, lam)} built past the seeded table")

    budget = Budget()
    parts = enumerate_partitions(2, 3)
    budget.charges.update(((P, lam), _modified_kostka_foulkes(P, lam) + 1)
                          for P in parts for lam in parts)
    monkeypatch.setattr(verifier, "_modified_kostka_foulkes", refused)
    report = run_suite(2, 3, budget=budget)
    failed = {c.name for c in report.checks if c.status == "fail"}
    assert failed == {"trace_identity", "stalk_hypothesis"}
    hypothesis = next(c for c in report.checks if c.name == "stalk_hypothesis")
    assert len(hypothesis.witnesses) == hypothesis.cases == len(parts) ** 2
