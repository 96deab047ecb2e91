import math
from itertools import permutations, product

import pytest

from nilflag.combinatorics import (
    _coarsenings,
    _dominates,
    _kostka,
    _schur_dim,
    check_dimvec,
    check_partition,
    conjugate,
    enumerate_dimvecs,
    enumerate_partitions,
    flag_dim,
    format_parts,
    hook_lengths,
    kostka_number,
    n_stat,
    orbit_dim,
    parse_parts,
    syt_count,
)
from oracles import (
    dimvecs_by_recursion,
    dominates_by_padding,
    partitions_by_recursion,
    refines_by_packing,
    ssyt_by_cells,
)

# numbers of partitions of 0..8 (for enumeration sanity)
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22]


def all_partitions(d):
    return enumerate_partitions(d, d)


def refines(p, r):
    """Whether p strictly refines r: r is a coarsening of p other than p."""
    return p != r and r in _coarsenings(p)


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))
    with pytest.raises(ValueError):
        check_partition((-1,))
    assert check_partition([3, 1]) == (3, 1)


def test_check_dimvec():
    assert check_dimvec([0, 2, 1]) == (0, 2, 1)
    with pytest.raises(ValueError):
        check_dimvec([1, -1])
    with pytest.raises(ValueError):
        check_dimvec([])


def test_parse_and_format_round_trip():
    assert parse_parts("2,1") == (2, 1)
    assert parse_parts("1,0,1") == (1, 0, 1)
    assert format_parts((2, 1)) == "2,1"
    with pytest.raises(ValueError):
        parse_parts("2,x")


def test_enumerate_partitions_examples():
    assert enumerate_partitions(2, 3) == [(2, 1), (1, 1, 1)]
    assert enumerate_partitions(3, 3) == [(3,), (2, 1), (1, 1, 1)]
    assert enumerate_partitions(1, 3) == [(1, 1, 1)]


def test_enumerate_partitions_counts_and_order():
    for d in range(1, 9):
        parts = enumerate_partitions(d, d)
        assert len(parts) == PARTITION_COUNTS[d]
        assert parts == sorted(parts, reverse=True)
        assert all(sum(p) == d for p in parts)
    for n in range(1, 5):
        for d in range(1, 7):
            for p in enumerate_partitions(n, d):
                assert all(part <= n for part in p)
    with pytest.raises(ValueError):
        enumerate_partitions(0, 3)


def test_enumerators_against_their_recursions():
    # same tuples in the same order as the recursion on the first part or entry
    for n in range(1, 9):
        for d in range(1, 14):
            assert enumerate_partitions(n, d) == partitions_by_recursion(n, d), (n, d)
    for n in range(1, 8):
        for d in range(1, 11):
            assert enumerate_dimvecs(n, d) == dimvecs_by_recursion(n, d), (n, d)


def test_conjugate_examples_and_involution():
    assert conjugate((3,)) == (1, 1, 1)
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    for d in range(1, 9):
        for p in all_partitions(d):
            assert conjugate(conjugate(p)) == p


def test_dominates():
    assert _dominates((2, 1), (1, 1, 1))
    assert not _dominates((2, 2), (3, 1))
    # incomparable pair, both directions false
    assert not _dominates((3, 1, 1, 1), (2, 2, 2))
    assert not _dominates((2, 2, 2), (3, 1, 1, 1))
    for d in range(1, 7):
        for p in all_partitions(d):
            assert _dominates(p, p)


def test_refines_examples():
    assert refines((1, 1, 1), (2, 1))
    assert refines((2, 1), (3,))
    assert not refines((2, 2), (3, 1))
    assert not refines((2, 1), (2, 1))


def test_both_orders_against_their_oracles():
    # every ordered pair of partitions of each d <= 12
    for d in range(1, 13):
        parts = all_partitions(d)
        for p in parts:
            for r in parts:
                assert refines(p, r) == refines_by_packing(p, r), (p, r)
                assert _dominates(p, r) == dominates_by_padding(p, r), (p, r)


def test_refines_implies_dominated():
    for d in range(1, 9):
        parts = all_partitions(d)
        for p in parts:
            for r in parts:
                if refines(p, r):
                    assert _dominates(r, p), (p, r)


def test_n_stat():
    assert n_stat((1, 1, 1)) == 3
    assert n_stat((2, 1)) == 1
    assert n_stat((3,)) == 0
    # independent route: sum of binomial(column, 2) over columns
    for d in range(1, 9):
        for p in all_partitions(d):
            assert n_stat(p) == sum(math.comb(c, 2) for c in conjugate(p))


def test_orbit_dim_examples():
    assert orbit_dim((1, 1)) == 0
    assert orbit_dim((2,)) == 2
    assert orbit_dim((2, 1)) == 4


def test_orbit_dim_matches_matrix_counts_for_two_by_two():
    # rank-one square-zero 2x2 matrices over F_p number p^2 - 1, so the
    # orbit of (2) is a surface: the count is a degree-2 polynomial in p
    for p in (2, 3, 5):
        count = 0
        for entries in product(range(p), repeat=4):
            a, b, c, d = entries
            if (a, b, c, d) == (0, 0, 0, 0):
                continue
            sq = (
                (a * a + b * c) % p,
                (a * b + b * d) % p,
                (c * a + d * c) % p,
                (c * b + d * d) % p,
            )
            if sq == (0, 0, 0, 0):
                count += 1
        assert count == p * p - 1
    assert orbit_dim((2,)) == 2


def test_orbit_dim_even_and_monotone():
    for d in range(1, 7):
        parts = all_partitions(d)
        for p in parts:
            assert orbit_dim(p) % 2 == 0
        for p in parts:
            for r in parts:
                if p != r and _dominates(p, r):
                    assert orbit_dim(p) > orbit_dim(r), (p, r)


def test_flag_dim_within_the_nilcone():
    # 2 flag_dim(dv) <= dim N_n, the largest orbit dimension over the types
    # with parts at most n, so semismall's global bound never binds
    for n in range(1, 6):
        for d in range(1, 8):
            cone = max(orbit_dim(p) for p in enumerate_partitions(n, d))
            for dv in enumerate_dimvecs(n, d):
                assert 2 * flag_dim(dv) <= cone, (n, d, dv)


def test_enumerate_dimvecs():
    assert enumerate_dimvecs(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert enumerate_dimvecs(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert enumerate_dimvecs(1, 4) == [(4,)]
    for n in range(1, 5):
        for d in range(1, 6):
            vecs = enumerate_dimvecs(n, d)
            assert len(vecs) == math.comb(n + d - 1, n - 1)
            assert len(set(vecs)) == len(vecs)
            assert all(sum(v) == d and len(v) == n for v in vecs)
            assert vecs == sorted(vecs, reverse=True)


def test_flag_dim():
    assert flag_dim((1, 1)) == 1
    assert flag_dim((2, 1)) == 2
    assert flag_dim((3, 0)) == 0
    # symmetric in the entries
    for dv in enumerate_dimvecs(3, 5):
        base = flag_dim(dv)
        for perm in permutations(dv):
            assert flag_dim(perm) == base


# the oracle's tableaux, which the Kostka numbers and the charge
# polynomials are compared with, checked on their own

def test_enumerate_ssyt_examples():
    two = ssyt_by_cells((2, 1), (1, 1, 1))
    assert two == [((1, 2), (3,)), ((1, 3), (2,))]
    assert ssyt_by_cells((1, 1), (2, 0)) == []
    for lam in [(2,), (2, 1), (3, 2), (2, 2, 1)]:
        only = ssyt_by_cells(lam, lam)
        assert len(only) == 1
        assert only[0] == tuple((i + 1,) * width for i, width in enumerate(lam))


def test_enumerate_ssyt_is_semistandard():
    for shape in [(3, 1), (2, 2), (3, 2, 1)]:
        for content in enumerate_dimvecs(3, sum(shape)):
            for t in ssyt_by_cells(shape, content):
                for row in t:
                    assert all(a <= b for a, b in zip(row, row[1:]))
                for i in range(1, len(t)):
                    for j in range(len(t[i])):
                        assert t[i - 1][j] < t[i][j]
                counts = [0, 0, 0]
                for row in t:
                    for v in row:
                        counts[v - 1] += 1
                assert tuple(counts) == content


def test_ssyt_count_invariant_under_content_permutation():
    for shape in [(3, 1), (2, 2), (2, 1, 1)]:
        for content in enumerate_dimvecs(3, 4):
            base = len(ssyt_by_cells(shape, content))
            for perm in set(permutations(content)):
                assert len(ssyt_by_cells(shape, perm)) == base


def test_enumerate_ssyt_against_cell_search():
    # Kostka numbers counted by strips build no tableau; they match the
    # cell-by-cell count on every pair of partitions of d <= 9
    kostka_pairs = [(shape, weight) for d in range(1, 10) for shape in all_partitions(d)
                    for weight in all_partitions(d)]
    assert len(kostka_pairs) == 1818
    for shape, weight in kostka_pairs:
        assert _kostka(shape, weight) == len(ssyt_by_cells(shape, weight)), (shape, weight)


def test_kostka_examples():
    assert kostka_number((2, 1), (1, 1, 1)) == 2
    assert kostka_number((1, 1), (2, 0)) == 0
    for d in range(1, 7):
        for lam in all_partitions(d):
            assert kostka_number(lam, lam) == 1
    with pytest.raises(ValueError):
        kostka_number((2, 1), (1, 1))


def test_kostka_vanishing_outside_dominance():
    for d in range(1, 7):
        parts = all_partitions(d)
        for shape in parts:
            for weight in parts:
                k = kostka_number(shape, weight)
                if not _dominates(shape, weight):
                    assert k == 0, (shape, weight)
                else:
                    assert k >= 1, (shape, weight)


def test_kostka_column_sums_give_multinomials():
    # sum over shapes of f^shape * K(shape, mu) is the permutation-module
    # dimension d!/prod(mu_i!)
    for d in range(1, 8):
        for mu in all_partitions(d):
            lhs = sum(
                syt_count(lam) * kostka_number(lam, mu) for lam in all_partitions(d))
            rhs = math.factorial(d)
            for m in mu:
                rhs //= math.factorial(m)
            assert lhs == rhs, mu


def test_hooks_and_syt_count():
    assert hook_lengths((2, 1)) == [[3, 1], [1]]
    assert syt_count((2, 1)) == 2
    assert syt_count((2, 2)) == 2
    for d in range(1, 8):
        assert syt_count((d,)) == 1
        for lam in all_partitions(d):
            assert syt_count(lam) == kostka_number(lam, (1,) * d)


def test_schur_dim_examples():
    assert _schur_dim((2, 1), 2) == 2
    assert _schur_dim((3,), 2) == 4
    assert _schur_dim((1, 1, 1), 2) == 0


def test_schur_dim_equals_kostka_weight_sum():
    for n in range(1, 5):
        for d in range(1, 7):
            for lam in all_partitions(d):
                if len(lam) > n:
                    continue
                weight_sum = sum(
                    kostka_number(lam, dv) for dv in enumerate_dimvecs(n, d))
                assert _schur_dim(lam, n) == weight_sum, (lam, n)


def test_tensor_power_dimension_sum():
    for n in range(1, 5):
        for d in range(1, 7):
            total = sum(
                syt_count(p) * _schur_dim(conjugate(p), n)
                for p in enumerate_partitions(n, d))
            assert total == n**d, (n, d)
