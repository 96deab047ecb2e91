"""Exact Laurent polynomials in q and their charge-statistic q-analogs.

A LaurentPoly is a finitely supported map exponent -> integer
coefficient; exponents may be negative.  Coefficients are Python ints,
so arbitrary precision comes for free.  On top of the ring live the
charge statistic on tableau words, Kostka-Foulkes polynomials and
Gaussian binomial coefficients.

Canonical text form: descending exponents, "q^2+q+1" style, with
explicit negative exponents as in "q^-1+2q^-2".
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache

from .combinatorics import (
    Partition,
    Tableau,
    check_partition,
    enumerate_ssyt,
    n_stat,
)


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in one variable q.

    Instances behave as immutable values: arithmetic returns fresh
    objects, equality is coefficient-wise, and no zero coefficients are
    ever stored.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        data: dict[int, int] = {}
        if coeffs:
            items = coeffs.items() if hasattr(coeffs, "items") else coeffs
            for e, c in items:
                c = int(c)
                if c:
                    e = int(e)
                    merged = data.get(e, 0) + c
                    if merged:
                        data[e] = merged
                    else:
                        data.pop(e, None)
        self._c = data

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def q_power(cls, e: int, coeff: int = 1) -> "LaurentPoly":
        return cls({e: coeff})

    def items(self):
        """Coefficient pairs (exponent, coefficient) in descending exponent order."""
        return [(e, self._c[e]) for e in sorted(self._c, reverse=True)]

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_polynomial(self) -> bool:
        """True when no negative exponent occurs."""
        return all(e >= 0 for e in self._c)

    def degree(self) -> int | None:
        """Largest exponent; None for the zero polynomial."""
        return max(self._c) if self._c else None

    def low_degree(self) -> int | None:
        return min(self._c) if self._c else None

    def leading_coefficient(self) -> int:
        return self._c[max(self._c)] if self._c else 0

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q**k (k may be negative)."""
        return LaurentPoly({e + k: c for e, c in self._c.items()})

    def scale(self, factor: int) -> "LaurentPoly":
        return LaurentPoly({e: c * factor for e, c in self._c.items()})

    def inverted(self) -> "LaurentPoly":
        """Substitute q -> 1/q."""
        return LaurentPoly({-e: c for e, c in self._c.items()})

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._c)
        for e, c in other._c.items():
            merged = data.get(e, 0) + c
            if merged:
                data[e] = merged
            else:
                data.pop(e, None)
        out = LaurentPoly()
        out._c = data
        return out

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + other.scale(-1)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data: dict[int, int] = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                merged = data.get(e, 0) + c1 * c2
                if merged:
                    data[e] = merged
                else:
                    data.pop(e, None)
        out = LaurentPoly()
        out._c = data
        return out

    __rmul__ = __mul__

    def __call__(self, x: int):
        """Exact evaluation; returns an int, or a Fraction when q->x
        hits a negative exponent that does not divide out."""
        total = Fraction(0)
        for e, c in self._c.items():
            if e >= 0:
                total += c * x**e
            else:
                total += Fraction(c, x ** (-e))
        return int(total) if total.denominator == 1 else total

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __bool__(self):
        return bool(self._c)

    def to_text(self) -> str:
        """Canonical text form, e.g. "q^2+q+1", "2q^-1-1", "0"."""
        if not self._c:
            return "0"
        pieces = []
        for e in sorted(self._c, reverse=True):
            c = self._c[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += sign + body
        return text

    def __repr__(self):
        return f"LaurentPoly({self.to_text()})"


def _coerce(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly({0: value})
    return NotImplemented


def reading_word(t: Tableau) -> tuple[int, ...]:
    """Row-reading word: bottom row first, left to right within rows."""
    word: list[int] = []
    for row in reversed(tuple(t)):
        word.extend(row)
    return tuple(word)


def word_charge(word) -> int:
    """Charge of a word whose content is a partition.

    Standard subwords are extracted by scanning right to left and
    picking the letters 1, 2, ... in turn, wrapping around cyclically;
    every wrap bumps the index and each picked letter contributes the
    current index.
    """
    w = [int(x) for x in word]
    if not w:
        return 0
    counts = Counter(w)
    biggest_letter = max(counts)
    multiplicities = [counts.get(v, 0) for v in range(1, biggest_letter + 1)]
    for a, b in zip(multiplicities, multiplicities[1:]):
        if a < b:
            raise ValueError(f"word content is not a partition: {multiplicities}")
    if 0 in multiplicities:
        raise ValueError(f"word content is not a partition: {multiplicities}")

    total = 0
    while w:
        biggest = max(w)
        i = len(w) - 1
        index = 0
        for target in range(1, biggest + 1):
            while w[i] != target:
                i -= 1
                if i < 0:
                    i = len(w) - 1
                    index += 1
            total += index
            w.pop(i)
            i -= 1
            if i < 0 and target < biggest:
                i = len(w) - 1
                index += 1
    return total


def charge(t) -> int:
    """Charge of a semistandard tableau with partition content."""
    return word_charge(reading_word(tuple(tuple(row) for row in t)))


@cache
def _kostka_foulkes(shape: Partition, weight: Partition) -> LaurentPoly:
    counts = Counter(charge(t) for t in enumerate_ssyt(shape, weight))
    return LaurentPoly(counts)


def kostka_foulkes(shape, weight) -> LaurentPoly:
    """Charge generating polynomial over tableaux of this shape and weight.

    Weight must be a partition.  The value at q=1 is the Kostka number;
    the zero polynomial is returned when no tableaux exist.
    """
    shape = check_partition(shape)
    weight = check_partition(weight)
    if sum(shape) != sum(weight):
        raise ValueError("shape size and weight size differ")
    return _kostka_foulkes(shape, weight)


def modified_kostka_foulkes(shape, weight) -> LaurentPoly:
    """The normalization q^{n(weight)} * kostka_foulkes(shape, weight)(1/q)."""
    shape = check_partition(shape)
    weight = check_partition(weight)
    base = kostka_foulkes(shape, weight)
    top = n_stat(weight)
    return LaurentPoly({top - e: c for e, c in base._c.items()})


@cache
def _gauss(m: int, k: int) -> LaurentPoly:
    if k > m:
        return LaurentPoly()
    if k == 0 or k == m:
        return LaurentPoly({0: 1})
    return _gauss(m - 1, k - 1) + _gauss(m - 1, k).shift(k)


def gaussian_binomial(m: int, k: int) -> LaurentPoly:
    """q-binomial coefficient; counts k-subspaces of an m-space at prime powers.

    k > m yields the zero polynomial.
    """
    if m < 0 or k < 0:
        raise ValueError("gaussian_binomial needs m >= 0 and k >= 0")
    return _gauss(m, k)

