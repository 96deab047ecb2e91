import random
import re
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from nilflag import flaggeo
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
    _kernel_quotient_tally,
    _right_pivot_census,
    check_prime,
    fiber_count,
    fiber_count_brute,
    fiber_polynomial,
    is_prime,
)
from nilflag.qpoly import LaurentPoly, _digits
from oracles import (
    FqMatrix,
    FqSubspace,
    _induced_type,
    contains,
    count_flags,
    echelon_bases,
    enumerate_subspaces,
    fiber_poly_by_strips,
    full_space,
    gauss_poly,
    interpolate,
    is_zero,
    jordan_matrix,
    jordan_type,
    kernel_subspace,
    mul,
    quotient_type,
    rank,
    right_pivot_cell_sizes,
    right_pivots,
    right_pivots_by_rref,
    transpose,
)


def test_primes():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        check_prime(4)


def test_matrix_basics():
    a = FqMatrix.build([[1, 2], [3, 4]], 3)
    assert a.rows == ((1, 2), (0, 1))
    assert a.apply((1, 1)) == (0, 1)
    assert a.column(1) == (2, 1)
    assert rank(a) == 2
    assert mul(a, a).rows == ((1, 1), (0, 1))
    assert transpose(a).rows == ((1, 0), (2, 1))
    assert not is_zero(a)
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
        if is_zero(m):
            continue
        if is_zero(mul(m, m)):
            assert rank(m) == 1
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
    assert contains(v, w)
    assert not contains(w, v)
    assert contains(full_space(3, 2), v)


def test_enumerate_subspaces_counts_and_uniqueness():
    for p in (2, 3):
        for m in range(5):
            full = full_space(m, p)
            for k in range(m + 1):
                seen = set()
                for s in enumerate_subspaces(full, k):
                    assert s.dim == k
                    assert s.rows not in seen
                    seen.add(s.rows)
                    # rows are already canonical
                    again = FqSubspace.span(s.rows, p, ambient=m)
                    assert again.rows == s.rows
                assert len(seen) == gauss_poly(m, k)(p)
    with pytest.raises(ValueError):
        list(enumerate_subspaces(full_space(2, 2), 3))
    # bases on columns 0, 2, 3 of F_3^5: zero off them, one per distinct span
    cols, k, p = (0, 2, 3), 2, 3
    bases = [rows for _, rows in echelon_bases(cols, k, p, 5)]
    assert all(row[j] == 0 for rows in bases for row in rows for j in (1, 4))
    spans = {FqSubspace.span(rows, p, ambient=5).rows for rows in bases}
    assert len(spans) == len(bases) == gauss_poly(len(cols), k)(p)


def test_enumerate_subspaces_of_proper_ambient():
    a = jordan_matrix((2, 1), 3)
    ker = kernel_subspace(a)
    assert ker.dim == 2
    lines = list(enumerate_subspaces(ker, 1))
    assert len(lines) == gauss_poly(2, 1)(3) == 4
    for line in lines:
        assert contains(ker, line)
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
            power = mul(power, a)
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


def test_kernel_quotient_tally_against_matrix_route():
    # the intersection-rank tally against the induced type on the quotient
    # by each of the kernel's subspaces, lifted to ambient coordinates
    tallies = 0
    for d in range(1, 7):
        for lam in enumerate_partitions(d, d):
            for p in (2, 3) if d == 6 else (2, 3, 5):
                a = jordan_matrix(lam, p)
                ker = kernel_subspace(a)
                # a kills the kernel's basis, so it kills every subspace below
                assert all(not any(a.apply(row)) for row in ker.rows)
                acols = tuple(a.column(j) for j in range(d))
                for m in range(len(lam) + 1):
                    budget = Budget()
                    tally = _kernel_quotient_tally(lam, m, p, budget)
                    oracle = Counter(_induced_type(acols, v.pivots, v.rows, d, p)
                                     for v in enumerate_subspaces(ker, m))
                    assert dict(tally) == oracle, (lam, m, p)
                    assert budget.used == gauss_poly(len(lam), m)(p)
                    tallies += 1
    assert tallies == 272


def test_right_pivot_census_against_elimination():
    # the leaf walk against one elimination per subspace, up to 10**5
    # subspaces; p = 11 and 13 need wider packed digits than p <= 7, and
    # p = 7 at ell = 6 walks 7^5 words, past one cached Gray table
    censuses = 0
    for p in (2, 3, 5, 7, 11, 13):
        for ell in range(1, 7 if p <= 7 else 4):
            for k in range(1, ell + 1):
                if gauss_poly(ell, k)(p) > 10**5:
                    continue
                oracle = Counter(tuple(sorted(right_pivots(rows, p)))
                                 for _, rows in echelon_bases(range(ell), k, p, ell))
                assert _right_pivot_census(ell, k, p) == oracle, (ell, k, p)
                censuses += 1
    assert censuses == 88


def test_right_pivot_census_on_short_walks():
    # keys where a first-row walk covers few subspaces, past the reach of
    # the elimination oracle; the census still visits every U
    for ell, k, p in [(8, 4, 2), (8, 5, 2), (7, 3, 3)]:
        assert _right_pivot_census(ell, k, p) == right_pivot_cell_sizes(ell, k, p), (ell, k, p)


def test_right_pivot_census_at_wide_digits():
    # p = 11 and 13 pack 5-bit digits and build 11- and 13-entry multiples
    # tables; with two or more rows below the first, a row joining the
    # basis clears non-unit digits of the rows already in it
    for ell, k, p in [(4, 3, 13), (5, 4, 11)]:
        assert _right_pivot_census(ell, k, p) == right_pivot_cell_sizes(ell, k, p), (ell, k, p)


def test_right_pivots_against_reversed_rref():
    # the two test oracles against each other on every k-subspace of
    # F_p^m, m <= 4, by its echelon basis and by a shuffled basis padded
    # with a zero row and a dependent row
    rng = random.Random(5)
    subspaces = 0
    for p in (2, 3, 5):
        for m in range(1, 5):
            for k in range(m + 1):
                for _, rows in echelon_bases(range(m), k, p, m):
                    expected = right_pivots_by_rref(rows, p)
                    assert right_pivots(rows, p) == expected, (rows, p)
                    coeffs = [rng.randrange(p) for _ in rows]
                    extra = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p
                                  for j in range(m))
                    padded = list(rows) + [(0,) * m, extra]
                    rng.shuffle(padded)
                    assert right_pivots(padded, p) == expected, (padded, p)
                    subspaces += 1
    assert subspaces == sum(
        gauss_poly(m, k)(p) for p in (2, 3, 5) for m in range(1, 5) for k in range(m + 1))


def test_right_pivots_of_zero_and_dependent_rows():
    assert right_pivots([], 3) == []
    assert right_pivots([(0, 0, 0), (0, 0, 0)], 3) == []
    # equal, proportional and summed rows add no rank
    assert right_pivots([(1, 2, 0), (2, 1, 0), (1, 2, 0)], 3) == [1]
    assert right_pivots([(1, 0, 1), (0, 1, 1), (1, 1, 2), (0, 0, 0)], 3) == [2, 1]
    rng = random.Random(8)
    for p in (2, 3, 5):
        for _ in range(100):
            m = rng.randrange(1, 7)
            rows = [tuple(rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(m))
                    for _ in range(rng.randrange(1, 7))]
            assert right_pivots(rows, p) == right_pivots_by_rref(rows, p), (rows, p)


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
                at = transpose(a)
                for dv, expected in base_counts.items():
                    assert count_flags(at, dv) == expected
                # a random conjugate g a g^-1
                while True:
                    g = FqMatrix.build(
                        [[rng.randrange(p) for _ in range(d)] for _ in range(d)], p)
                    if rank(g) == d:
                        break
                conj = mul(mul(g, a), _inverse(g))
                assert jordan_type(conj) == lam
                for dv, expected in base_counts.items():
                    assert count_flags(conj, dv) == expected


def test_brute_route_against_the_tuple_reference():
    # the packed oracle against count_flags over tuples of residues at the
    # Jordan matrix: counts and charges, one Budget each, on every lambda
    # and every dv up to length d + 1, zero jumps included; at d = 4 up to
    # length 4, and at p = 5 up to length 3, as full flags of F_5^4 would
    # cost about 5 s more, most of it in the reference
    instances = 0
    for d in range(1, 5):
        for p in (2, 3, 5):
            longest = d + 1 if d < 4 else 3 if p == 5 else 4
            for lam in enumerate_partitions(d, d):
                a = jordan_matrix(lam, p)
                for dv in (dv for n in range(1, longest + 1) for dv in enumerate_dimvecs(n, d)):
                    packed, reference = Budget(), Budget()
                    count = fiber_count_brute(lam, dv, p, budget=packed)
                    assert count == count_flags(a, dv, budget=reference), (lam, dv, p)
                    assert packed.used == reference.used, (lam, dv, p)
                    instances += 1
    assert instances == 1049


def test_fiber_count_brute_examples():
    for q in (2, 3, 5):
        assert fiber_count_brute((1, 1), (1, 1), q) == q + 1
        assert fiber_count_brute((2,), (1, 1), q) == 1
    assert fiber_count_brute((2, 1), (1, 1, 1), 2) == 5


def test_fiber_count_examples():
    for q in (2, 3, 5):
        assert fiber_count((1, 1, 1), (2, 1), q) == q * q + q + 1
        assert fiber_count((2, 1), (2, 1), q) == 1
        assert fiber_count((2, 1), (1, 1, 1), q) == 2 * q + 1


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
                            fiber_count(lam, dv, p)
                            == fiber_count_brute(lam, dv, p)
                        ), (lam, dv, p)


def test_zero_matrix_counts_are_gaussian_products():
    for p in (2, 3, 5):
        for d in range(1, 6):
            for n in (2, 3):
                for dv in enumerate_dimvecs(n, d):
                    expected = 1
                    left = d
                    for step in dv:
                        expected *= gauss_poly(left, step)(p)
                        left -= step
                    assert fiber_count((1,) * d, dv, p) == expected


def test_blocks_longer_than_flag_kill_the_fiber():
    for p in (2, 3, 5):
        assert fiber_count((3,), (2, 1), p) == 0
        assert fiber_count_brute((3,), (2, 1), p) == 0
        assert fiber_count((4, 1), (2, 2, 1), p) == 0


def test_empty_fiber_consistency():
    for p in (2, 3, 5, 7):
        assert fiber_count((2,), (2, 0), p) == 0
        assert fiber_count((2,), (0, 2), p) == 0


def test_zero_jumps_count_as_the_nonzero_composition():
    # a zero jump repeats a subspace: padding a composition with zeros
    # changes neither the count, which the brute route still finds by
    # walking every zero step, nor the polynomial, nor what a run is charged
    for d in range(1, 6):
        # at d = 5, three steps would cost the brute route about 2 s more
        steps = (1, 2, 3) if d < 5 else (1, 2)
        compositions = [dv for n in steps for dv in enumerate_dimvecs(n, d) if all(dv)]
        for dense in compositions:
            head, tail = dense[:1], dense[1:]
            walled = (0,) + head + (0, 0) + tail + (0,)
            padded = [(0,) + dense, head + (0,) + tail, dense + (0,), walled]
            for lam in enumerate_partitions(d, d):
                poly = fiber_polynomial(lam, dense)
                assert all(fiber_polynomial(lam, dv) == poly for dv in padded), (lam, dense)
                for p in (2, 3):
                    budget = Budget()
                    count = fiber_count(lam, dense, p, budget=budget)
                    assert fiber_count_brute(lam, walled, p) == count, (lam, walled, p)
                    for dv in padded:
                        fresh = Budget()
                        assert fiber_count(lam, dv, p, budget=fresh) == count
                        assert fresh.used == budget.used, (lam, dv, p)


def test_counts_are_symmetric_in_the_dimension_vector():
    # Weyl symmetry: permuting dv changes neither the count nor the
    # polynomial; the memo is keyed by the composition in order, so
    # each permutation is counted along its own path
    pairs = 0
    for n, d in ((3, 5), (4, 6)):
        budgets = {p: Budget() for p in (2, 3)}
        for lam in enumerate_partitions(n, d):
            for dv in enumerate_dimvecs(n, d):
                counts = {p: fiber_count(lam, dv, p, budget=b) for p, b in budgets.items()}
                poly = fiber_polynomial(lam, dv)
                for perm in set(permutations(dv)):
                    pairs += 1
                    assert fiber_polynomial(lam, perm) == poly, (lam, dv, perm)
                    for p, b in budgets.items():
                        assert fiber_count(lam, perm, p, budget=b) == counts[p], (lam, perm, p)
    assert pairs == 10_647


def test_fiber_polynomial_fixed_points():
    assert fiber_polynomial((1, 1), (1, 1)) == LaurentPoly({1: 1, 0: 1})
    assert fiber_polynomial((2, 1), (1, 1, 1)) == LaurentPoly({1: 2, 0: 1})
    assert fiber_polynomial((1, 1, 1), (2, 1)) == LaurentPoly({2: 1, 1: 1, 0: 1})
    assert fiber_polynomial((2,), (2, 0)) == LaurentPoly()


def test_fiber_polynomial_properties():
    primes = [2, 3, 5, 7, 11, 13, 17]
    # sizes small enough to count at bound + 2 primes
    interpolated = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]
    for n, d in product(range(1, 5), range(1, 6)):
        for lam in enumerate_partitions(n, d):
            bound_base = orbit_dim(lam) // 2
            for dv in enumerate_dimvecs(n, d):
                poly = fiber_polynomial(lam, dv)
                assert all(c > 0 for _, c in poly.items())
                # like the character side, it depends on dv only through its weight
                assert poly == fiber_polynomial(lam, tuple(sorted(dv, reverse=True))), (lam, dv)
                bound = flag_dim(dv) - bound_base
                if bound < 0:
                    assert poly.is_zero and fiber_count(lam, dv, 2) == 0
                    continue
                if (n, d) not in interpolated:
                    continue
                # the interpolant of enumerated counts at bound + 2 primes
                # has degree <= bound and equals the strip polynomial
                samples = [(p, fiber_count(lam, dv, p)) for p in primes[: bound + 2]]
                assert interpolate(samples, bound) == poly, (lam, dv)


def test_fiber_polynomial_validation():
    with pytest.raises(ValueError):
        fiber_polynomial((2, 1), (1, 1))
    with pytest.raises(ValueError):
        fiber_polynomial((1, 2), (2, 1))


def test_fiber_polynomial_readback_against_strip_recursion():
    # the count at q = 2^B, read in base 2^B, equals the LaurentPoly
    # recursion for every lambda and nonzero composition with d <= 9
    pairs = 0
    for d in range(1, 10):
        cuts = [(0, *c, d) for k in range(d) for c in combinations(range(1, d), k)]
        compositions = [tuple(b - a for a, b in zip(c, c[1:])) for c in cuts]
        for lam in enumerate_partitions(d, d):
            for dv in compositions:
                pairs += 1
                assert fiber_polynomial(lam, dv) == fiber_poly_by_strips(lam, dv), (lam, dv)
    assert pairs == 11977


def test_fiber_walk_against_strip_recursion():
    # the walk over every composition of at most n parts, read in base 2^B,
    # equals the LaurentPoly recursion for every lambda with d <= 9 and
    # every n <= d, so the pruning by n is covered, and it yields no
    # composition whose fiber is zero
    values = 0
    for d in range(1, 10):
        bits = flaggeo._bits(d)
        cuts = [(0, *c, d) for k in range(d) for c in combinations(range(1, d), k)]
        compositions = [tuple(b - a for a, b in zip(c, c[1:])) for c in cuts]
        for lam in enumerate_partitions(d, d):
            for n in range(1, d + 1):
                fibers = flaggeo._fibers(lam, n, Budget())
                assert all(fibers.values()) and set(fibers) <= set(compositions)
                for dims in compositions:
                    if len(dims) <= n:
                        values += 1
                        poly = _digits(fibers.get(dims, 0), bits)
                        assert poly == fiber_poly_by_strips(lam, dims), (lam, n, dims)
    assert values == 56_611


def test_fiber_polynomial_walks_one_composition():
    # at lambda = dv = 1^60 every flag is stable: the count is [60]_q!,
    # which a walk over all 2^59 compositions would never reach
    factorial_60 = LaurentPoly({0: 1})
    for i in range(1, 61):
        factorial_60 = factorial_60 * LaurentPoly({e: 1 for e in range(i)})
    assert fiber_polynomial((1,) * 60, (1,) * 60) == factorial_60


# (lam, dimvec, p, count, T): T is the number of subspaces the brute
# route enumerates with no budget limit
BRUTE_THRESHOLDS = [
    ((1, 1, 1), (1, 1, 1), 3, 52, 65),
    ((2, 1), (1, 1, 1), 2, 5, 16),
    ((2, 1, 1), (2, 1, 1), 2, 13, 56),
    ((2, 2), (2, 2), 3, 1, 130),
    ((1, 1, 1, 1), (2, 2), 2, 35, 35),
    ((2, 1, 1), (1, 1, 1, 1), 2, 51, 139),
]


@pytest.mark.parametrize("lam, dv, p, count, total", BRUTE_THRESHOLDS)
def test_brute_refuses_just_below_its_total_and_names_the_instance(lam, dv, p, count, total):
    budget = Budget()
    before = flaggeo.STATS["subspaces"]
    assert fiber_count_brute(lam, dv, p, budget=budget) == count
    assert budget.used == flaggeo.STATS["subspaces"] - before == total
    assert fiber_count_brute(lam, dv, p, budget=total) == count
    instance = f"counting lambda={list(lam)}, dimvec={list(dv)}, q={p}"
    with pytest.raises(BudgetExceeded, match=re.escape(instance) + "$"):
        fiber_count_brute(lam, dv, p, budget=total - 1)


def test_charge_counts_only_admitted_batches():
    budget = Budget(5)
    before = flaggeo.STATS["subspaces"]
    budget.charge(3)
    with pytest.raises(BudgetExceeded, match=r"\(7 > 5\)$"):
        budget.charge(4)
    assert flaggeo.STATS["subspaces"] - before == 3


def test_count_flags_refusal_names_its_instance():
    # the brute route's refusal names the instance; the reference, which
    # charges the same batches, refuses at the same total
    with pytest.raises(BudgetExceeded) as refusal:
        fiber_count_brute((1, 1, 1), (1, 1, 1), 3, budget=3)
    assert str(refusal.value) == (
        "subspace budget exhausted (13 > 3) counting lambda=[1, 1, 1], dimvec=[1, 1, 1], q=3")
    with pytest.raises(BudgetExceeded, match=r"\(13 > 3\)$"):
        count_flags(jordan_matrix((1, 1, 1), 3), (1, 1, 1), budget=Budget(3))


def test_budget_refusal():
    with pytest.raises(BudgetExceeded):
        fiber_count((2, 1, 1), (1, 1, 1, 1), 3, budget=5)
    with pytest.raises(BudgetExceeded):
        fiber_count_brute((1, 1, 1), (1, 1, 1), 3, budget=3)
    # the same outcome cold and after an unbudgeted count of the instance
    with pytest.raises(BudgetExceeded, match=r"13 > 10\) counting lambda=\[2, 1, 1\]"):
        fiber_count((2, 1, 1), (1, 1, 1, 1), 3, budget=10)
    assert fiber_count((2, 1, 1), (1, 1, 1, 1), 3) == 136
    with pytest.raises(BudgetExceeded, match=r"13 > 10"):
        fiber_count((2, 1, 1), (1, 1, 1, 1), 3, budget=10)
    with pytest.raises(ValueError):
        Budget(-1)
    # a successful call stays within budget
    assert fiber_count((2, 1), (1, 1, 1), 3, budget=100) == 7
