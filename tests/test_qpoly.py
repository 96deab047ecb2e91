import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from nilflag.combinatorics import (
    enumerate_partitions,
    kostka_number,
    n_stat,
)
from nilflag.qpoly import (
    LaurentPoly,
    _charge,
    _digits,
    _gauss,
    _modified_kostka_foulkes,
    kostka_foulkes,
)
from oracles import (
    InterpolationError,
    gauss_poly,
    interpolate,
    lusztig_kostka_foulkes,
    ssyt_by_cells,
)

Q = LaurentPoly({1: 1})
ONE = LaurentPoly({0: 1})


def poly(**kw):
    return LaurentPoly({int(e): c for e, c in kw.items()})


def reading_word(t):
    """Row-reading word of a tableau: bottom row first, left to right within rows."""
    return tuple(letter for row in reversed(t) for letter in row)


def word_charge(word):
    return _charge(list(word))


def charge(t):
    """Charge of a tableau: that of its reading word."""
    return word_charge(reading_word(t))


def gauss_digits(m, k):
    """[m; k]_q read from its value at q = 2^(m+1), whose base-2^(m+1)
    digits are its coefficients, as they sum to C(m, k) < 2^(m+1)."""
    return _digits(_gauss(m, k, 2 << m), m + 1)


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

    def test_no_zero_coefficients_stored(self):
        p = LaurentPoly({1: 1}) + LaurentPoly({1: -1})
        assert p.is_zero
        assert p.items() == []
        assert LaurentPoly({3: 0}).is_zero

    def test_degree_and_coeff(self):
        p = LaurentPoly({3: 2, 0: -1, -2: 7})
        assert p.degree() == 3
        assert p.coeff(0) == -1
        assert p.coeff(99) == 0
        assert LaurentPoly().degree() is None

    def test_evaluation_exact(self):
        p = LaurentPoly({2: 1, 1: 1, 0: 1})
        assert p(5) == 31
        laurent = LaurentPoly({1: 1, -1: 1})
        assert laurent(2) == Fraction(5, 2)
        assert LaurentPoly({-1: 4})(2) == 2  # integral despite the negative exponent
        big = gauss_digits(8, 4)
        assert big(10**6) > 10**23  # arbitrary precision
        # polynomials evaluate to plain ints; only negative exponents need Fraction
        for value in (p(5), big(3), LaurentPoly()(7), LaurentPoly({-1: 4})(2)):
            assert type(value) is int
        assert LaurentPoly.q_power(-1)(2) == Fraction(1, 2)

    def test_text_form(self):
        assert LaurentPoly().to_text() == "0"
        assert (Q * Q + Q + ONE).to_text() == "q^2+q+1"
        assert LaurentPoly({1: 2, 0: 1}).to_text() == "2q+1"
        assert LaurentPoly({2: 1, 0: -1}).to_text() == "q^2-1"
        assert LaurentPoly({-1: 1, -2: 2}).to_text() == "q^-1+2q^-2"
        assert LaurentPoly({1: -1}).to_text() == "-q"

    def test_ring_agrees_with_evaluation(self):
        # every operator commutes with exact evaluation at q = 2, 3 and 5;
        # zero draws cover the zero polynomial and cancelled terms
        rng = random.Random(20)

        def draw():
            return LaurentPoly({rng.randint(-6, 6): rng.randint(-3, 3)
                                for _ in range(rng.randint(0, 5))})

        for _ in range(300):
            f, g, k = draw(), draw(), rng.randint(-3, 3)
            assert bool(f) == (not f.is_zero)
            for x in (2, 3, 5):
                fx, gx = f(x), g(x)
                assert (f + g)(x) == fx + gx
                assert (f - g)(x) == fx - gx
                assert (f * g)(x) == fx * gx
                assert (-f)(x) == -fx
                assert (k + f)(x) == k + fx
                assert (f - k)(x) == fx - k
                assert (k - f)(x) == k - fx
                assert (k * f)(x) == k * fx
                assert f.shift(k)(x) == fx * Fraction(x) ** k

    def test_equality_and_hash(self):
        assert LaurentPoly({0: 1}) == 1
        assert LaurentPoly({0: 0}) == 0
        assert hash(LaurentPoly({1: 1, 0: 1})) == hash(ONE + Q)

    def test_constants_hash_as_their_int(self):
        # a constant equals its int, so it must hash alike to serve as that key
        assert hash(ONE) == hash(1)
        assert hash(LaurentPoly()) == hash(0)
        assert hash(LaurentPoly({0: -7})) == hash(-7)
        assert len({ONE, 1}) == 1
        assert {1: "x"}.get(ONE) == "x"
        assert {0: "zero"}.get(LaurentPoly()) == "zero"


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

    def test_extraction_examples(self):
        # hand-worked multi-pass extractions
        assert word_charge((2, 1, 1)) == 0
        assert word_charge((1, 1, 2)) == 1
        assert word_charge((2, 3, 1, 1)) == 1
        assert word_charge((3, 1, 1, 2)) == 2
        assert word_charge((2, 1, 1, 3)) == 1
        assert word_charge(()) == 0
        assert charge(()) == 0


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
                        assert kf.items()[0] == (kf.degree(), 1)  # monic

    def test_against_lusztig_q_analogue(self):
        # the charge route against the alternating sum of q-Kostant
        # partition functions, on every pair of partitions of d <= 6, and
        # the modified table that runs read against its reflection
        pairs = 0
        for d in range(1, 7):
            parts = enumerate_partitions(d, d)
            for lam in parts:
                for mu in parts:
                    lusztig = lusztig_kostka_foulkes(lam, mu)
                    assert kostka_foulkes(lam, mu) == lusztig, (lam, mu)
                    reflected = LaurentPoly({n_stat(mu) - e: c for e, c in lusztig.items()})
                    assert _modified_kostka_foulkes(lam, mu) == reflected, (lam, mu)
                    pairs += 1
        assert pairs == 209

    def test_weight_must_be_partition(self):
        with pytest.raises(ValueError):
            kostka_foulkes((2, 1), (1, 2))
        with pytest.raises(ValueError):
            kostka_foulkes((2, 1), (1, 1))


class TestModifiedKostkaFoulkes:
    def test_worked_values(self):
        assert _modified_kostka_foulkes((2,), (1, 1)) == ONE
        assert _modified_kostka_foulkes((1, 1), (1, 1)) == Q
        assert _modified_kostka_foulkes((2, 1), (1, 1, 1)) == poly(**{"1": 1, "2": 1})

    def test_diagonal_and_value_at_one(self):
        for d in range(1, 7):
            parts = enumerate_partitions(d, d)
            for lam in parts:
                assert _modified_kostka_foulkes(lam, lam) == LaurentPoly({n_stat(lam): 1})
                for mu in parts:
                    mkf = _modified_kostka_foulkes(lam, mu)
                    assert mkf(1) == kostka_number(lam, mu)
                    assert all(e >= 0 for e, _ in mkf.items())

    def test_against_charge_over_cell_search(self):
        # the words filled in place strip by strip against the reading
        # words of the tableaux filled cell by cell, charged one by one,
        # on every pair of partitions of d <= 9
        pairs = tableaux = 0
        for d in range(1, 10):
            parts = enumerate_partitions(d, d)
            for shape in parts:
                for weight in parts:
                    found = ssyt_by_cells(shape, weight)
                    expected = Counter(n_stat(weight) - charge(t) for t in found)
                    assert _modified_kostka_foulkes(shape, weight) == LaurentPoly(expected), \
                        (shape, weight)
                    pairs += 1
                    tableaux += len(found)
        assert (pairs, tableaux) == (1818, 9437)


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
        assert gauss_digits(2, 1) == Q + ONE
        assert gauss_digits(4, 2) == poly(**{"4": 1, "3": 1, "2": 2, "1": 1, "0": 1})
        for m in range(6):
            assert gauss_digits(m, 0) == ONE
        assert gauss_digits(2, 3).is_zero

    def test_against_q_pascal_polynomials(self):
        # read from one value at q = 2^(m+1), one digit per coefficient; at
        # m = 16 the coefficients sum to C(16, 8) = 12,870
        for m in range(17):
            for k in range(m + 2):
                assert gauss_digits(m, k) == gauss_poly(m, k), (m, k)

    def test_binomials_at_one(self):
        import math

        for m in range(9):
            for k in range(m + 1):
                assert gauss_digits(m, k)(1) == math.comb(m, k)

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
                    assert gauss_digits(m, k)(p) == num // den

    def test_brute_span_counts(self):
        for m, k, p in [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 2), (4, 2, 2)]:
            assert gauss_digits(m, k)(p) == brute_subspace_count(m, k, p)


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
