from fractions import Fraction
from itertools import permutations, product

import pytest

from nilflag.combinatorics import (
    enumerate_partitions,
    enumerate_ssyt,
    kostka_number,
    n_stat,
)
from nilflag.qpoly import (
    LaurentPoly,
    charge,
    gaussian_binomial,
    kostka_foulkes,
    modified_kostka_foulkes,
    reading_word,
    word_charge,
)
from oracles import InterpolationError, interpolate

Q = LaurentPoly({1: 1})
ONE = LaurentPoly({0: 1})


def poly(**kw):
    return LaurentPoly({int(e): c for e, c in kw.items()})


class TestLaurentPoly:
    def test_ring_ops(self):
        assert (Q + ONE) * (Q - ONE) == LaurentPoly({2: 1, 0: -1})
        assert LaurentPoly() + Q == Q
        assert Q * 0 == LaurentPoly()
        assert 3 * Q == LaurentPoly({1: 3})
        assert Q - Q == LaurentPoly()
        assert sum([Q, ONE, Q]) == LaurentPoly({1: 2, 0: 1})

    def test_shift_and_invert(self):
        assert (Q + ONE).shift(-1) == LaurentPoly({0: 1, -1: 1})
        assert (Q + ONE).shift(2) == LaurentPoly({3: 1, 2: 1})
        assert LaurentPoly({2: 5, -1: 3}).inverted() == LaurentPoly({-2: 5, 1: 3})

    def test_no_zero_coefficients_stored(self):
        p = LaurentPoly({1: 1}) + LaurentPoly({1: -1})
        assert p.is_zero
        assert p.items() == []
        assert LaurentPoly({3: 0}).is_zero

    def test_degree_and_coeff(self):
        p = LaurentPoly({3: 2, 0: -1, -2: 7})
        assert p.degree() == 3
        assert p.low_degree() == -2
        assert p.leading_coefficient() == 2
        assert p.coeff(0) == -1
        assert p.coeff(99) == 0
        assert LaurentPoly().degree() is None

    def test_evaluation_exact(self):
        p = LaurentPoly({2: 1, 1: 1, 0: 1})
        assert p(5) == 31
        laurent = LaurentPoly({1: 1, -1: 1})
        assert laurent(2) == Fraction(5, 2)
        assert LaurentPoly({-1: 4})(2) == 2  # integral despite the negative exponent
        big = gaussian_binomial(8, 4)
        assert big(10**6) > 10**23  # arbitrary precision

    def test_text_form(self):
        assert LaurentPoly().to_text() == "0"
        assert (Q * Q + Q + ONE).to_text() == "q^2+q+1"
        assert LaurentPoly({1: 2, 0: 1}).to_text() == "2q+1"
        assert LaurentPoly({2: 1, 0: -1}).to_text() == "q^2-1"
        assert LaurentPoly({-1: 1, -2: 2}).to_text() == "q^-1+2q^-2"
        assert LaurentPoly({1: -1}).to_text() == "-q"

    def test_equality_and_hash(self):
        assert LaurentPoly({0: 1}) == 1
        assert LaurentPoly({0: 0}) == 0
        assert hash(LaurentPoly({1: 1, 0: 1})) == hash(ONE + Q)


class TestCharge:
    def test_reading_word_bottom_first(self):
        assert reading_word(((1, 2), (3,))) == (3, 1, 2)
        assert reading_word(((1, 1, 2),)) == (1, 1, 2)
        assert reading_word(((1,), (2,), (3,))) == (3, 2, 1)

    def test_worked_words(self):
        assert charge(((1, 2, 3),)) == 3
        assert charge(((1,), (2,), (3,))) == 0
        assert charge(((1, 1, 2),)) == 1

    def test_against_index_rule_on_standard_words(self):
        # independent implementation: the index of 1 is 0 and the index of
        # r+1 increments exactly when r+1 sits to the right of r
        def index_rule(word):
            pos = {v: i for i, v in enumerate(word)}
            total = 0
            idx = 0
            for r in range(2, len(word) + 1):
                if pos[r] > pos[r - 1]:
                    idx += 1
                total += idx
            return total

        for size in range(1, 6):
            for word in permutations(range(1, size + 1)):
                assert word_charge(word) == index_rule(word), word

    def test_non_partition_content_rejected(self):
        with pytest.raises(ValueError):
            word_charge((2, 2, 1))
        with pytest.raises(ValueError):
            word_charge((1, 3))  # gap: no 2
        with pytest.raises(ValueError):
            charge(((2,), (3,)))

    def test_extraction_examples(self):
        # hand-worked multi-pass extractions
        assert word_charge((2, 1, 1)) == 0
        assert word_charge((1, 1, 2)) == 1
        assert word_charge((2, 3, 1, 1)) == 1
        assert word_charge((3, 1, 1, 2)) == 2
        assert word_charge((2, 1, 1, 3)) == 1


class TestKostkaFoulkes:
    def test_worked_values(self):
        assert kostka_foulkes((2, 1), (1, 1, 1)) == poly(**{"1": 1, "2": 1})
        assert kostka_foulkes((2,), (1, 1)) == Q
        for lam in [(2, 1), (3,), (2, 2), (3, 2, 1)]:
            assert kostka_foulkes(lam, lam) == ONE

    def test_hand_frozen_values(self):
        assert kostka_foulkes((2, 2), (1, 1, 1, 1)) == poly(**{"2": 1, "4": 1})
        assert kostka_foulkes((3, 1), (2, 1, 1)) == poly(**{"1": 1, "2": 1})
        assert kostka_foulkes((2, 2), (2, 1, 1)) == Q
        assert kostka_foulkes((3, 1), (1, 1, 1, 1)) == poly(**{"3": 1, "4": 1, "5": 1})

    def test_specializes_to_kostka_at_one(self):
        for d in range(1, 7):
            parts = enumerate_partitions(d, d)
            for shape in parts:
                for weight in parts:
                    kf = kostka_foulkes(shape, weight)
                    assert kf(1) == kostka_number(shape, weight)
                    assert all(c > 0 for _, c in kf.items())

    def test_single_row_shape(self):
        for d in range(1, 7):
            for mu in enumerate_partitions(d, d):
                assert kostka_foulkes((d,), mu) == LaurentPoly({n_stat(mu): 1})

    def test_degree_is_nstat_gap(self):
        for d in range(1, 7):
            parts = enumerate_partitions(d, d)
            for shape in parts:
                for weight in parts:
                    kf = kostka_foulkes(shape, weight)
                    if not kf.is_zero:
                        assert kf.degree() == n_stat(weight) - n_stat(shape)
                        assert kf.leading_coefficient() == 1

    def test_weight_must_be_partition(self):
        with pytest.raises(ValueError):
            kostka_foulkes((2, 1), (1, 2))
        with pytest.raises(ValueError):
            kostka_foulkes((2, 1), (1, 1))


class TestModifiedKostkaFoulkes:
    def test_worked_values(self):
        assert modified_kostka_foulkes((2,), (1, 1)) == ONE
        assert modified_kostka_foulkes((1, 1), (1, 1)) == Q
        assert modified_kostka_foulkes((2, 1), (1, 1, 1)) == poly(**{"1": 1, "2": 1})

    def test_diagonal_and_value_at_one(self):
        for d in range(1, 7):
            parts = enumerate_partitions(d, d)
            for lam in parts:
                assert modified_kostka_foulkes(lam, lam) == LaurentPoly({n_stat(lam): 1})
                for mu in parts:
                    mkf = modified_kostka_foulkes(lam, mu)
                    assert mkf(1) == kostka_number(lam, mu)
                    assert mkf.is_polynomial


def brute_subspace_count(m, k, p):
    """Count k-subspaces of F_p^m by collecting distinct spans."""
    vectors = list(product(range(p), repeat=m))

    def span(vs):
        space = {(0,) * m}
        for v in vs:
            extra = set()
            for s in space:
                for c in range(1, p):
                    extra.add(tuple((x + c * y) % p for x, y in zip(s, v)))
            space |= extra
        return frozenset(space)

    spans = set()
    for vs in product(vectors, repeat=k):
        s = span(vs)
        if len(s) == p**k:
            spans.add(s)
    return len(spans)


class TestGaussianBinomial:
    def test_examples(self):
        assert gaussian_binomial(2, 1) == Q + ONE
        assert gaussian_binomial(4, 2) == poly(**{"4": 1, "3": 1, "2": 2, "1": 1, "0": 1})
        for m in range(6):
            assert gaussian_binomial(m, 0) == ONE
        assert gaussian_binomial(2, 3).is_zero
        with pytest.raises(ValueError):
            gaussian_binomial(-1, 0)

    def test_binomials_at_one(self):
        import math

        for m in range(9):
            for k in range(m + 1):
                assert gaussian_binomial(m, k)(1) == math.comb(m, k)

    def test_order_formula(self):
        # independent route: (number of ordered independent k-tuples) /
        # (number of bases of a k-space)
        for p in (2, 3):
            for m in range(5):
                for k in range(m + 1):
                    num = den = 1
                    for i in range(k):
                        num *= p**m - p**i
                        den *= p**k - p**i
                    assert gaussian_binomial(m, k)(p) == num // den

    def test_brute_span_counts(self):
        for m, k, p in [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 2), (4, 2, 2)]:
            assert gaussian_binomial(m, k)(p) == brute_subspace_count(m, k, p)


class TestInterpolate:
    def test_line(self):
        assert interpolate([(2, 3), (3, 4)], 1) == Q + ONE

    def test_collinear_triples_fit_at_bound_one(self):
        # (2,5),(3,7),(5,11) all sit on 2q+1, so the degree-1 fit succeeds
        assert interpolate([(2, 5), (3, 7), (5, 11)], 1) == poly(**{"1": 2, "0": 1})

    def test_inconsistent_samples_rejected(self):
        with pytest.raises(InterpolationError):
            interpolate([(2, 5), (3, 7), (5, 12)], 1)

    def test_lines_in_three_space(self):
        # brute-force counts of lines in F_q^3 at q = 2, 3, 5
        counts = [(p, brute_subspace_count(3, 1, p)) for p in (2, 3)]
        counts.append((5, (5**3 - 1) // 4))
        assert counts[0][1] == 7 and counts[1][1] == 13 and counts[2][1] == 31
        assert interpolate(counts, 2) == Q * Q + Q + ONE

    def test_insufficient_samples(self):
        with pytest.raises(InterpolationError):
            interpolate([(2, 3)], 1)
        with pytest.raises(ValueError):
            interpolate([(2, 3), (3, 4)], -1)

    def test_conflicting_duplicates(self):
        with pytest.raises(InterpolationError):
            interpolate([(2, 3), (2, 4)], 0)
        assert interpolate([(2, 3), (2, 3), (3, 3)], 0) == 3 * ONE

    def test_non_integer_coefficients_rejected(self):
        with pytest.raises(InterpolationError):
            interpolate([(2, 0), (4, 1)], 1)

    def test_round_trip_on_integer_polynomials(self):
        import random

        rng = random.Random(7)
        primes = [2, 3, 5, 7, 11, 13, 17]
        for _ in range(25):
            deg = rng.randrange(5)
            coeffs = {e: rng.randint(-9, 9) for e in range(deg + 1)}
            coeffs[deg] = rng.randint(1, 9)
            target = LaurentPoly(coeffs)
            samples = [(x, target(x)) for x in primes[: deg + 3]]
            assert interpolate(samples, deg) == target
            for x, y in samples:
                assert target(x) == y
