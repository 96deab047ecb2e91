"""Exact Laurent polynomials in q and their charge-statistic q-analogs.

A LaurentPoly is a finitely supported map exponent -> integer
coefficient; exponents may be negative.  Coefficients are Python ints,
so arbitrary precision comes for free.  On top of the ring live the
charge of a tableau word (_charge), the modified Kostka-Foulkes
polynomial that runs read, which fills each tableau's reading word in
place strip by strip and charges it, and its reflection kostka_foulkes,
the one export here that checks its input; nothing here is cached, so a
run keeps what it reuses.  _gauss gives a Gaussian binomial as an int at
one integer q by its product formula; _digits reads a polynomial with
coefficients in [0, 2^B) back from its value at q = 2^B.

Canonical text form: descending exponents, "q^2+q+1" style, with
explicit negative exponents as in "q^-1+2q^-2".
"""

from __future__ import annotations

from collections import Counter

from .combinatorics import Partition, _strips, check_partition, n_stat


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in one variable q.

    Instances behave as immutable values: arithmetic returns fresh
    objects and equality is coefficient-wise.  The constructor is the
    one place that drops zero coefficients, and every operator builds
    its result through it: equality and hashing compare the stored
    coefficients, so a stored zero would split equal polynomials.
    Exponents and coefficients must be ints; the constructor does not
    check them, so a float coefficient is stored as given.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        # coeffs maps int exponent -> int coefficient; zero coefficients are dropped
        self._c = {e: c for e, c in (coeffs or {}).items() if c}

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

    def degree(self) -> int | None:
        """Largest exponent; None for the zero polynomial."""
        return max(self._c) if self._c else None

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q**k (k may be negative)."""
        return LaurentPoly({e + k: c for e, c in self._c.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data = dict(self._c)
        for e, c in other._c.items():
            data[e] = data.get(e, 0) + c
        return LaurentPoly(data)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + other * -1

    def __rsub__(self, other):
        return self * -1 + other

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._c.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data: dict[int, int] = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                data[e] = data.get(e, 0) + c1 * c2
        return LaurentPoly(data)

    __rmul__ = __mul__

    def __call__(self, x: int):
        """Exact evaluation; returns an int, or a Fraction when q->x
        hits a negative exponent that does not divide out."""
        if all(e >= 0 for e in self._c):
            return sum(c * x**e for e, c in self._c.items())
        from fractions import Fraction  # loaded only here, off the start-up path

        total = sum(c * x**e if e >= 0 else Fraction(c, x ** -e) for e, c in self._c.items())
        return int(total) if total.denominator == 1 else total

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c.items() == other._c.items()

    def __hash__(self):
        # a constant equals its int, so it must hash as that int
        if not self._c.keys() - {0}:
            return hash(self._c.get(0, 0))
        return hash(frozenset(self._c.items()))

    def __bool__(self):
        return bool(self._c)

    def to_text(self) -> str:
        """Canonical text form, e.g. "q^2+q+1", "2q^-1-1", "0"."""
        text = ""
        for e, c in self.items():
            # a sign (the first term's only when negative), the magnitude
            # unless it is a 1 before a shown q, then the power of q
            if c < 0 or text:
                text += "-" if c < 0 else "+"
            if abs(c) != 1 or e == 0:
                text += str(abs(c))
            if e:
                text += "q" if e == 1 else f"q^{e}"
        return text or "0"

    def __repr__(self):
        return f"LaurentPoly({self.to_text()})"


def _charge(w: list[int]) -> int:
    """Charge of a word with partition content, given as a list, which it empties:
    standard subwords are picked right to left, the letters 1, 2, ... in turn,
    cyclically; each wrap bumps the index that each picked letter adds."""
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


def _modified_kostka_foulkes(shape: Partition, weight: Partition) -> LaurentPoly:
    """q^{n(weight)} * kostka_foulkes(shape, weight)(1/q), for valid partitions.

    Each tableau's reading word (bottom row first) is filled in place, a
    horizontal strip per letter from the last down, then charged."""
    top = n_stat(weight)
    starts = [sum(shape[i + 1:]) for i in range(len(shape))]  # each row's offset in the word
    word = [0] * sum(shape)
    tally: Counter[int] = Counter()

    def fill(outer: Partition, letter: int) -> None:
        if not letter:
            tally[top - _charge(word.copy())] += 1
            return
        for inner, taken in _strips(outer, weight[letter - 1]):
            if len(inner) < letter:  # inner's first column takes distinct smaller letters
                for start, end, b in zip(starts, outer, taken):
                    if b:
                        word[start + end - b:start + end] = [letter] * b
                fill(inner, letter - 1)

    fill(shape, len(weight))
    return LaurentPoly(tally)


def kostka_foulkes(shape, weight) -> LaurentPoly:
    """Charge generating polynomial over tableaux of this shape and weight.

    Weight must be a partition.  The value at q=1 is the Kostka number;
    the zero polynomial is returned when no tableaux exist.  It is the
    reflection of _modified_kostka_foulkes.
    """
    shape, weight = check_partition(shape), check_partition(weight)
    if sum(shape) != sum(weight):
        raise ValueError("shape size and weight size differ")
    top = n_stat(weight)
    return LaurentPoly({top - e: c for e, c in _modified_kostka_foulkes(shape, weight).items()})


def _gauss(m: int, k: int, q: int) -> int:
    # prod_{i<k} (q^(m-i) - 1) / (q^(i+1) - 1) with k read as min(k, m-k), 0 past m;
    # each partial product is [m; i+1]_q, an int at every integer q >= 2
    value = int(k <= m)
    for i in range(min(k, m - k)):
        value = value * (q ** (m - i) - 1) // (q ** (i + 1) - 1)
    return value


def _digits(value: int, bits: int) -> LaurentPoly:
    """The polynomial whose coefficients are the base-2^bits digits of value."""
    mask = (1 << bits) - 1
    return LaurentPoly({e: value >> bits * e & mask
                        for e in range(value.bit_length() // bits + 1)})


def _top(value: int, bits: int) -> int | None:  # the degree of _digits(value, bits)
    return (value.bit_length() - 1) // bits if value else None


def _digit(value: int, bits: int, e: int) -> int:  # _digits(value, bits).coeff(e)
    return value >> bits * e & ((1 << bits) - 1) if e >= 0 else 0
