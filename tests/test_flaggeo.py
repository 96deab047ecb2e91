import json
import random
from itertools import product

import pytest

from nilflag.combinatorics import (
    conjugate,
    enumerate_dimvecs,
    enumerate_partitions,
    flag_dim,
    kostka_number,
    orbit_dim,
)
from nilflag.flaggeo import (
    Budget,
    BudgetExceeded,
    CountCache,
    FiberCountRecord,
    FqMatrix,
    FqSubspace,
    PrimeField,
    STATS,
    count_flags,
    enumerate_subspaces,
    fiber_count,
    fiber_count_brute,
    fiber_polynomial,
    is_prime,
    jordan_matrix,
    jordan_type,
    kernel_subspace,
    quotient_type,
    reset_caches,
)
from nilflag.qpoly import LaurentPoly, gaussian_binomial
from oracles import interpolate


def test_primes():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        PrimeField(4)


def test_prime_field_axioms():
    for p in (2, 3, 5):
        F = PrimeField(p)
        els = list(F.elements())
        for a in els:
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in els:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                    assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            F.inv(0)


def test_matrix_basics():
    a = FqMatrix.build([[1, 2], [3, 4]], 3)
    assert a.rows == ((1, 2), (0, 1))
    assert a.apply((1, 1)) == (0, 1)
    assert a.column(1) == (2, 1)
    assert a.rank() == 2
    assert a.mul(a).rows == ((1, 1), (0, 1))
    assert a.transpose().rows == ((1, 0), (2, 1))
    assert not a.is_zero
    with pytest.raises(ValueError):
        FqMatrix.build([[1], [1, 2]], 3)


def test_jordan_matrix_block_layout():
    assert jordan_matrix((2,), 5).rows == ((0, 1), (0, 0))
    assert jordan_matrix((1, 1), 5).rows == ((0, 0), (0, 0))
    assert jordan_matrix((2, 1), 5).rows == ((0, 1, 0), (0, 0, 0), (0, 0, 0))


def test_jordan_type():
    assert jordan_type(FqMatrix.build([[0] * 3] * 3, 7)) == (1, 1, 1)
    for p in (2, 5):
        for d in range(1, 6):
            for lam in enumerate_partitions(d, d):
                assert jordan_type(jordan_matrix(lam, p)) == lam
    with pytest.raises(ValueError):
        jordan_type(FqMatrix.build([[1, 0], [0, 1]], 3))
    with pytest.raises(ValueError):
        jordan_type(FqMatrix.build([[0, 0, 0], [0, 0, 0]], 3))


def test_rank_one_square_zero_is_type_two():
    p = 3
    for entries in product(range(p), repeat=4):
        m = FqMatrix.build([entries[:2], entries[2:]], p)
        if m.is_zero:
            continue
        if m.mul(m).is_zero:
            assert m.rank() == 1
            assert jordan_type(m) == (2,)


def test_subspace_canonical_form():
    rng = random.Random(11)
    for p in (2, 3):
        for _ in range(40):
            dim = rng.randrange(1, 4)
            vecs = [tuple(rng.randrange(p) for _ in range(4)) for _ in range(dim)]
            v = FqSubspace.span(vecs, p)
            # respanning shuffled linear combinations gives the same basis
            combos = []
            for _ in range(dim + 1):
                coeffs = [rng.randrange(p) for _ in range(len(vecs))]
                combos.append(
                    tuple(
                        sum(c * row[t] for c, row in zip(coeffs, vecs)) % p
                        for t in range(4)))
            w = FqSubspace.span(list(v.rows) + combos, p)
            assert w.rows == v.rows
            assert w.pivots == v.pivots
            for row in combos:
                assert v.contains_vector(row)


def test_subspace_reduce_and_contains():
    v = FqSubspace.span([(1, 0, 1), (0, 1, 1)], 2)
    assert v.dim == 2
    assert v.contains_vector((1, 1, 0))
    assert not v.contains_vector((1, 1, 1))
    assert v.reduce((1, 1, 0)) == (0, 0, 0)
    w = FqSubspace.span([(1, 1, 0)], 2)
    assert v.contains(w)
    assert not w.contains(v)
    assert FqSubspace.zero(3, 2).dim == 0
    assert FqSubspace.full(3, 2).contains(v)


def test_enumerate_subspaces_counts_and_uniqueness():
    for p in (2, 3):
        for m in range(5):
            full = FqSubspace.full(m, p)
            for k in range(m + 1):
                seen = set()
                for s in enumerate_subspaces(full, k):
                    assert s.dim == k
                    assert s.rows not in seen
                    seen.add(s.rows)
                    # rows are already canonical
                    again = FqSubspace.span(s.rows, p, ambient=m)
                    assert again.rows == s.rows
                assert len(seen) == gaussian_binomial(m, k)(p)
    with pytest.raises(ValueError):
        list(enumerate_subspaces(FqSubspace.full(2, 2), 3))


def test_enumerate_subspaces_of_proper_ambient():
    a = jordan_matrix((2, 1), 3)
    ker = kernel_subspace(a)
    assert ker.dim == 2
    lines = list(enumerate_subspaces(ker, 1))
    assert len(lines) == gaussian_binomial(2, 1)(3) == 4
    for line in lines:
        assert ker.contains(line)
        assert line.rows == FqSubspace.span(line.rows, 3, ambient=3).rows


def test_kernel_subspace():
    for p in (2, 5):
        for lam in [(3,), (2, 1), (2, 2), (3, 1, 1)]:
            a = jordan_matrix(lam, p)
            ker = kernel_subspace(a)
            assert ker.dim == len(lam)
            for row in ker.rows:
                assert not any(a.apply(row))


def test_quotient_type_worked_examples():
    z = FqMatrix.build([[0, 0], [0, 0]], 5)
    assert quotient_type(z, FqSubspace.span([(1, 3)], 5)) == (1,)
    a = jordan_matrix((2,), 5)
    assert quotient_type(a, FqSubspace.span([(1, 0)], 5)) == (1,)
    b = jordan_matrix((2, 1), 5)
    assert quotient_type(b, FqSubspace.span([(1, 0, 0)], 5)) == (1, 1)


def test_quotient_type_rejects_unkilled_subspace():
    a = jordan_matrix((2,), 3)
    with pytest.raises(ValueError):
        quotient_type(a, FqSubspace.span([(0, 1)], 3))


def test_quotient_type_against_rank_oracle():
    # independent route: rank of the induced power equals
    # dim(im a^i + V) - dim V, read from stacked row spans
    def oracle(a, v):
        d = a.nrows
        if v.dim == d:
            return ()
        ranks = [d - v.dim]
        power = a
        while True:
            img_rows = [power.column(j) for j in range(d)]
            stacked = FqSubspace.span(list(img_rows) + list(v.rows), a.p, ambient=d)
            r = stacked.dim - v.dim
            ranks.append(r)
            if r == 0:
                break
            power = power.mul(a)
        cols = tuple(ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1))
        return conjugate(cols)

    for p in (2, 3):
        for d in range(1, 5):
            for lam in enumerate_partitions(d, d):
                a = jordan_matrix(lam, p)
                ker = kernel_subspace(a)
                for k in range(ker.dim + 1):
                    for v in enumerate_subspaces(ker, k):
                        assert quotient_type(a, v) == oracle(a, v), (lam, v.rows)


def _inverse(m: FqMatrix) -> FqMatrix:
    # Gauss-Jordan on [m | I], test-local
    p = m.p
    n = m.nrows
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m.rows)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] % p)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [(x * inv) % p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[c])]
    return FqMatrix.build([row[n:] for row in aug], p)


def test_count_flags_representative_independence():
    rng = random.Random(3)
    for p in (2, 3):
        for d in (2, 3):
            for lam in enumerate_partitions(d, d):
                a = jordan_matrix(lam, p)
                base_counts = {
                    dv: count_flags(a, dv) for dv in enumerate_dimvecs(2, d)
                }
                # transpose is conjugate to a
                at = a.transpose()
                for dv, expected in base_counts.items():
                    assert count_flags(at, dv) == expected
                # a random conjugate g a g^-1
                while True:
                    g = FqMatrix.build(
                        [[rng.randrange(p) for _ in range(d)] for _ in range(d)], p)
                    if g.rank() == d:
                        break
                conj = g.mul(a).mul(_inverse(g))
                assert jordan_type(conj) == lam
                for dv, expected in base_counts.items():
                    assert count_flags(conj, dv) == expected


def test_fiber_count_brute_examples():
    for q in (2, 3, 5):
        assert fiber_count_brute((1, 1), (1, 1), q).count == q + 1
        assert fiber_count_brute((2,), (1, 1), q).count == 1
    rec = fiber_count_brute((2, 1), (1, 1, 1), 2)
    assert rec == FiberCountRecord((2, 1), (1, 1, 1), 2, 5)


def test_fiber_count_examples():
    for q in (2, 3, 5):
        assert fiber_count((1, 1, 1), (2, 1), q).count == q * q + q + 1
        assert fiber_count((2, 1), (2, 1), q).count == 1
        assert fiber_count((2, 1), (1, 1, 1), q).count == 2 * q + 1


def test_fiber_count_validation():
    with pytest.raises(ValueError):
        fiber_count((2, 1), (1, 1), 2)
    with pytest.raises(ValueError):
        fiber_count((2,), (1, 1), 4)


def test_fiber_count_matches_brute_small():
    for d in range(1, 4):
        for n in range(1, 4):
            for lam in enumerate_partitions(d, d):
                for dv in enumerate_dimvecs(n, d):
                    for p in (2, 3):
                        assert (
                            fiber_count(lam, dv, p).count
                            == fiber_count_brute(lam, dv, p).count
                        ), (lam, dv, p)


def test_zero_matrix_counts_are_gaussian_products():
    for p in (2, 3, 5):
        for d in range(1, 6):
            for n in (2, 3):
                for dv in enumerate_dimvecs(n, d):
                    expected = 1
                    left = d
                    for step in dv:
                        expected *= gaussian_binomial(left, step)(p)
                        left -= step
                    assert fiber_count((1,) * d, dv, p).count == expected


def test_blocks_longer_than_flag_kill_the_fiber():
    for p in (2, 3, 5):
        assert fiber_count((3,), (2, 1), p).count == 0
        assert fiber_count_brute((3,), (2, 1), p).count == 0
        assert fiber_count((4, 1), (2, 2, 1), p).count == 0


def test_empty_fiber_consistency():
    for p in (2, 3, 5, 7):
        assert fiber_count((2,), (2, 0), p).count == 0
        assert fiber_count((2,), (0, 2), p).count == 0


def test_fiber_polynomial_fixed_points():
    assert fiber_polynomial((1, 1), (1, 1)) == LaurentPoly({1: 1, 0: 1})
    assert fiber_polynomial((2, 1), (1, 1, 1)) == LaurentPoly({1: 2, 0: 1})
    assert fiber_polynomial((1, 1, 1), (2, 1)) == LaurentPoly({2: 1, 1: 1, 0: 1})
    assert fiber_polynomial((2,), (2, 0)) == LaurentPoly()


def test_fiber_polynomial_properties():
    primes = [2, 3, 5, 7, 11, 13, 17]
    for n, d in [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]:
        for lam in enumerate_partitions(n, d):
            bound_base = orbit_dim(lam) // 2
            for dv in enumerate_dimvecs(n, d):
                poly = fiber_polynomial(lam, dv)
                assert all(c > 0 for _, c in poly.items())
                bound = flag_dim(dv) - bound_base
                if bound < 0:
                    assert poly.is_zero and fiber_count(lam, dv, 2).count == 0
                    continue
                # the interpolant of enumerated counts at bound + 2 primes
                # has degree <= bound and equals the strip polynomial
                samples = [(p, fiber_count(lam, dv, p).count) for p in primes[: bound + 2]]
                assert interpolate(samples, bound) == poly, (lam, dv)


def test_fiber_polynomial_validation():
    with pytest.raises(ValueError):
        fiber_polynomial((2, 1), (1, 1))
    with pytest.raises(ValueError):
        fiber_polynomial((1, 2), (2, 1))


def test_budget_refusal():
    reset_caches()
    with pytest.raises(BudgetExceeded):
        fiber_count((2, 1, 1), (1, 1, 1, 1), 3, budget=5)
    reset_caches()
    with pytest.raises(BudgetExceeded):
        fiber_count_brute((1, 1, 1), (1, 1, 1), 3, budget=3)
    reset_caches()
    with pytest.raises(ValueError):
        Budget(-1)
    # a successful call stays within budget
    assert fiber_count((2, 1), (1, 1, 1), 3, budget=100).count == 7


def test_count_cache_roundtrip(tmp_path):
    path = tmp_path / "counts.jsonl"
    cache = CountCache(path)
    assert len(cache) == 0  # missing file tolerated
    rec = fiber_count((2, 1), (1, 1, 1), 5, cache=cache)
    assert rec.count == 11
    line = path.read_text().strip()
    assert line == '{"lambda":[2,1],"dimvec":[1,1,1],"q":5,"count":11}'
    assert json.loads(line)["count"] == 11

    reloaded = CountCache(path)
    assert reloaded.get((2, 1), (1, 1, 1), 5) == 11
    assert reloaded.get((2, 1), (1, 1, 1), 7) is None
    # duplicate puts do not append twice
    reloaded.put(rec)
    assert len(path.read_text().strip().splitlines()) == 1


def test_cached_counts_skip_enumeration(tmp_path):
    path = tmp_path / "counts.jsonl"
    cache = CountCache(path)
    reset_caches()
    fiber_count((2, 2, 1), (2, 2, 1), 3, cache=cache)
    reset_caches()
    fresh_cache = CountCache(path)
    before = STATS["subspaces"]
    rec = fiber_count((2, 2, 1), (2, 2, 1), 3, cache=fresh_cache)
    assert STATS["subspaces"] == before
    assert rec.count == fiber_count_brute((2, 2, 1), (2, 2, 1), 3).count


def test_count_cache_ignores_torn_final_line(tmp_path):
    path = tmp_path / "counts.jsonl"
    path.write_text(
        '{"lambda":[1,1],"dimvec":[1,1],"q":2,"count":3}\n{"lambda":[2,1],"dim\n')
    cache = CountCache(path)
    assert cache.get((1, 1), (1, 1), 2) == 3
    assert len(cache) == 1
    # the next append replaces the torn line, so the file reloads cleanly
    fiber_count((2, 1), (1, 1, 1), 5, cache=cache)
    assert path.read_text().splitlines() == [
        '{"lambda":[1,1],"dimvec":[1,1],"q":2,"count":3}',
        '{"lambda":[2,1],"dimvec":[1,1,1],"q":5,"count":11}',
    ]
    assert CountCache(path).get((2, 1), (1, 1, 1), 5) == 11
    # a complete last record that lost only its newline is kept
    path.write_text('{"lambda":[1,1],"dimvec":[1,1],"q":2,"count":3}')
    cache = CountCache(path)
    fiber_count((2,), (1, 1), 2, cache=cache)
    assert len(CountCache(path)) == 2


def test_count_cache_rejects_malformed_interior_line(tmp_path):
    path = tmp_path / "counts.jsonl"
    path.write_text(
        '{"lambda":[1,1],"dimvec":[1,1],"q":2,"count":3}\n'
        '{"lambda":[2,1],"dim\n'
        '{"lambda":[2],"dimvec":[1,1],"q":2,"count":1}\n')
    with pytest.raises(ValueError, match=r"counts\.jsonl:2: malformed"):
        CountCache(path)


def test_count_cache_recounts_impossible_counts(tmp_path):
    path = tmp_path / "counts.jsonl"
    # [2; 1,1]_3 = 4 flags in all, so 999 and -1 cannot be counts
    path.write_text(
        '{"lambda":[1,1],"dimvec":[1,1],"q":3,"count":999}\n'
        '{"lambda":[2],"dimvec":[1,1],"q":3,"count":-1}\n')
    cache = CountCache(path)
    assert cache.get((1, 1), (1, 1), 3) is None
    assert fiber_count((1, 1), (1, 1), 3, cache=cache).count == 4
    assert fiber_count((2,), (1, 1), 3, cache=cache).count == 1
    reloaded = CountCache(path)
    assert reloaded.get((1, 1), (1, 1), 3) == 4
    assert reloaded.get((2,), (1, 1), 3) == 1
    # a count at the bound itself is kept
    path.write_text('{"lambda":[1,1],"dimvec":[1,1],"q":3,"count":4}\n')
    assert CountCache(path).get((1, 1), (1, 1), 3) == 4
