import json

import pytest

from nilflag.combinatorics import (
    enumerate_dimvecs,
    enumerate_partitions,
    n_stat,
    orbit_dim,
)
from nilflag.flaggeo import CountCache, fiber_polynomial
from nilflag.qpoly import LaurentPoly, modified_kostka_foulkes
from nilflag.verifier import (
    FiberStore,
    bootstrap_stalks,
    run_suite,
    trace_identity_rhs,
    verify_schur_weyl,
    verify_semismall,
    verify_stalk_bootstrap,
    verify_stalk_hypothesis,
    verify_top_components,
    verify_trace_identity,
    verify_young_rule,
)


class TestTraceIdentityRhs:
    def test_worked_pairs(self):
        assert trace_identity_rhs(2, 2, (1, 1), (1, 1)) == LaurentPoly({1: 1, 0: 1})
        assert trace_identity_rhs(2, 2, (2,), (2, 0)) == LaurentPoly()
        assert trace_identity_rhs(3, 3, (2, 1), (1, 1, 1)) == LaurentPoly({1: 2, 0: 1})

    def test_bad_convention(self):
        with pytest.raises(ValueError):
            trace_identity_rhs(2, 2, (1, 1), (1, 1), convention="other")


class TestTraceIdentity:
    def test_polynomial_mode_small_grid(self):
        for n, d in [(2, 2), (2, 3), (3, 3), (2, 4)]:
            result = verify_trace_identity(n, d)
            assert result.status == "pass", (n, d, result.witnesses[:2])
            pairs = len(enumerate_partitions(n, d)) * len(enumerate_dimvecs(n, d))
            assert result.cases == pairs

    def test_numeric_mode(self):
        result = verify_trace_identity(3, 4, mode="numeric", primes=[2, 3])
        assert result.status == "pass"
        pairs = len(enumerate_partitions(3, 4)) * len(enumerate_dimvecs(3, 4))
        assert result.cases == pairs * 2

    def test_literal_paper_pairing_fails_with_witness(self):
        result = verify_trace_identity(2, 2, convention="literal-paper")
        assert result.status == "fail"
        witnesses = {(tuple(w["lambda"]), tuple(w["dimvec"])) for w in result.witnesses}
        assert ((2,), (2, 0)) in witnesses
        # and the repaired pairing passes
        assert verify_trace_identity(2, 2).status == "pass"


class TestBootstrap:
    def test_two_by_two_table(self):
        table = bootstrap_stalks(2, 2)
        assert table.get((2,), (2,)) == LaurentPoly({-1: 1})
        assert table.get((2,), (1, 1)) == LaurentPoly({-1: 1})
        assert table.get((1, 1), (1, 1)) == LaurentPoly({0: 1})
        assert table.get((1, 1), (2,)) == LaurentPoly()

    def test_two_by_three_table(self):
        table = bootstrap_stalks(2, 3)
        assert table.get((2, 1), (2, 1)) == LaurentPoly({-2: 1})
        assert table.get((2, 1), (1, 1, 1)) == LaurentPoly({-1: 1, -2: 1})
        assert table.get((1, 1, 1), (1, 1, 1)) == LaurentPoly({0: 1})

    def test_row_subset_independence(self):
        for n, d in [(2, 3), (3, 3), (3, 4)]:
            a = bootstrap_stalks(n, d, row_order="descending")
            b = bootstrap_stalks(n, d, row_order="ascending")
            assert a.entries == b.entries

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
                    assert table.get(P, P) == LaurentPoly({-(orbit_dim(P) // 2): 1})
                    for lam in enumerate_partitions(n, d):
                        expected = modified_kostka_foulkes(P, lam).shift(-shift)
                        assert table.get(P, lam) == expected


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


class TestDimensionChecks:
    def test_schur_weyl_values(self):
        for n, d in [(2, 2), (2, 3), (3, 3), (4, 5)]:
            assert verify_schur_weyl(n, d).status == "pass"
        with pytest.raises(ValueError):
            verify_schur_weyl(7, 3)
        with pytest.raises(ValueError):
            verify_schur_weyl(2, 8)

    def test_young_rule(self):
        for d in range(1, 8):
            assert verify_young_rule(d).status == "pass"
        with pytest.raises(ValueError):
            verify_young_rule(9)


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

    def test_report_schema_and_determinism(self):
        first = run_suite(3, 3).to_json()
        second = run_suite(3, 3).to_json()
        assert first == second
        payload = json.loads(first)
        assert set(payload) == {"params", "checks"}
        for check in payload["checks"]:
            assert set(check) == {"name", "status", "cases", "witnesses"}
            assert check["status"] in ("pass", "fail", "skipped")

    def test_suite_with_cache(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        r1 = run_suite(2, 3, cache=CountCache(path)).to_json()
        r2 = run_suite(2, 3, cache=CountCache(path)).to_json()
        assert r1 == r2
        assert path.exists() and path.read_text().strip()

    def test_primes_are_count_primes_in_both_modes(self):
        for mode in ("polynomial", "numeric"):
            report = run_suite(2, 3, mode=mode, primes=[5, 7])
            assert report.ok
            assert report.params["primes"] == [5, 7]
        with pytest.raises(ValueError):
            run_suite(2, 3, primes=[4])
        with pytest.raises(ValueError):
            run_suite(2, 3, primes=[])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            run_suite(0, 2)
        with pytest.raises(ValueError):
            run_suite(2, 2, mode="exact")
        with pytest.raises(ValueError):
            run_suite(2, 2, convention="mirror")


class TestFiberStore:
    def test_store_reuses_polynomials(self):
        store = FiberStore()
        a = store.poly((2, 1), (1, 1, 1))
        b = store.poly((2, 1), (1, 1, 1))
        assert a is b
        assert store.count((2, 1), (1, 1, 1), 7) == 15
