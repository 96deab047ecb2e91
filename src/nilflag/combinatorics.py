"""Partition, dimension-vector and tableau combinatorics.

Partitions are tuples of weakly decreasing positive integers; the same
tuple serves as a Jordan type (block sizes of a nilpotent matrix), a
tableau shape and a highest weight.  Dimension vectors are fixed-length
tuples of non-negative integers recording the jumps of a partial flag.
Both use the canonical text form "2,1" (comma-separated integers).

A semistandard tableau is a chain of horizontal strips, one per letter;
Kostka numbers, qpoly's charge walk and flaggeo's Hall tally walk the
strips that _strips lists, and none builds a tableau.  Counts are Python
ints, which never wrap.
"""

from __future__ import annotations

import math
import operator
from functools import cache
from itertools import accumulate, combinations, combinations_with_replacement

Partition = tuple[int, ...]
DimVector = tuple[int, ...]


def check_int(x) -> int:
    """x as an int; a float or a string is refused, not truncated or parsed."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"not an integer: {x!r}") from None


def check_size(n, d) -> tuple[int, int]:
    """n and d as ints, both at least 1: the rule for every export over (n, d)."""
    n, d = check_int(n), check_int(d)
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    return n, d


def check_partition(parts) -> Partition:
    """Validate a partition given as any iterable of ints; return a tuple."""
    p = tuple(map(check_int, parts))
    for i, x in enumerate(p):
        if x <= 0:
            raise ValueError(f"partition parts must be positive: {p}")
        if i and p[i - 1] < x:
            raise ValueError(f"partition parts must be weakly decreasing: {p}")
    return p


def check_dimvec(entries) -> DimVector:
    """Validate a dimension vector; return a tuple."""
    dv = tuple(map(check_int, entries))
    if not dv:
        raise ValueError("dimension vector needs at least one entry")
    if any(x < 0 for x in dv):
        raise ValueError(f"dimension vector entries must be non-negative: {dv}")
    return dv


def parse_parts(text: str) -> tuple[int, ...]:
    """Parse the canonical comma-separated form, e.g. "2,1" -> (2, 1)."""
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"not a comma-separated integer list: {text!r}") from None


def format_parts(parts) -> str:
    return ",".join(str(int(x)) for x in parts)


def enumerate_partitions(n: int, d: int) -> list[Partition]:
    """All partitions of d with parts at most n, lexicographically decreasing:
    each lowers the last part above 1 of the one before and refills greedily."""
    n, d = check_size(n, d)
    out: list[Partition] = []
    p: list[int] = []
    remaining, biggest = d, n
    while True:
        k, r = divmod(remaining, biggest)
        p += [biggest] * k + ([r] if r else [])
        out.append(tuple(p))
        ones = p.count(1)
        if ones == len(p):
            return out
        del p[len(p) - ones:]
        p[-1] = biggest = p[-1] - 1
        remaining = ones + 1


def conjugate(p: Partition) -> Partition:
    """Column lengths of the Young diagram of the valid partition p."""
    if not p:
        return ()
    return tuple(sum(1 for part in p if part > j) for j in range(p[0]))


def _dominates(p: Partition, r: Partition) -> bool:
    """Prefix-sum (dominance) order on valid partitions of the same size."""
    # equal sizes, so a p with more parts than r already fails at r's last part
    return all(a >= b for a, b in zip(accumulate(p), accumulate(r)))


@cache
def _coarsenings(p: Partition) -> frozenset[Partition]:
    """p and every partition made from it by merging parts, two at a time."""
    return frozenset((p,)).union(*map(_coarsenings, {
        tuple(sorted(p[:i] + p[i + 1:j] + p[j + 1:] + (p[i] + p[j],), reverse=True))
        for i, j in combinations(range(len(p)), 2)}))


def n_stat(p: Partition) -> int:
    """The statistic sum over rows i (1-based) of (i-1) * part_i of a valid partition."""
    return sum(i * part for i, part in enumerate(p))


def orbit_dim(lam: Partition) -> int:
    """Dimension of the class of nilpotents with the valid Jordan type lam."""
    d = sum(lam)
    return d * d - sum(c * c for c in conjugate(lam))


def _cut(d: int, cuts) -> tuple[int, ...]:
    """The parts of d between the weakly increasing cut points in 0..d."""
    return tuple(b - a for a, b in zip((0, *cuts), (*cuts, d)))


def enumerate_dimvecs(n: int, d: int) -> list[DimVector]:
    """All n-tuples of non-negative integers summing to d, lex decreasing:
    d cut at n - 1 points that may coincide, the cuts listed in reverse."""
    n, d = check_size(n, d)
    return [_cut(d, cuts) for cuts in combinations_with_replacement(range(d + 1), n - 1)][::-1]


def flag_dim(dv: DimVector) -> int:
    """Dimension of the flag-variety component with the valid jump vector dv."""
    total = sum(dv)
    return (total * total - sum(x * x for x in dv)) // 2


@cache
def _strips(outer: Partition, size: int) -> tuple[tuple[Partition, tuple[int, ...]], ...]:
    """Each horizontal strip outer/inner of size boxes as (inner, taken), in lex
    order of taken: row i of the valid outer gives up its last taken[i] <=
    outer[i] - outer[i+1] boxes, so no two share a column (Macdonald, I §1)."""
    if not outer:
        return (((), ()),) if size == 0 else ()
    head, rest = outer[0], outer[1:]
    gap = head - (rest[0] if rest else 0)
    return tuple(((head - b,) + inner if b < head else inner, (b,) + taken)
                 for b in range(min(gap, size) + 1) for inner, taken in _strips(rest, size - b))


def sorted_weight(content) -> Partition:
    """The nonzero entries of a composition in decreasing order.

    Kostka numbers depend on the content only through this partition.
    """
    return tuple(sorted((x for x in content if x), reverse=True))


@cache
def _kostka(shape: Partition, weight: Partition) -> int:
    if not weight or len(shape) > len(weight):  # a column holds distinct letters
        return int(not shape)
    return sum(_kostka(inner, weight[:-1]) for inner, _ in _strips(shape, weight[-1]))


def kostka_number(shape, content) -> int:
    """Number of semistandard tableaux of the given shape and content.

    Content may be any composition; the count only depends on the sorted
    multiplicities, so arbitrary dimension vectors are accepted.
    """
    shape = check_partition(shape)
    weight = sorted_weight(check_dimvec(content))
    if sum(shape) != sum(weight):
        raise ValueError("shape size and content total differ")
    return _kostka(shape, weight)


def hook_lengths(shape: Partition) -> list[list[int]]:
    """Hook length of every cell of a valid shape, row by row."""
    conj = conjugate(shape)
    return [
        [shape[i] - j + conj[j] - i - 1 for j in range(shape[i])]
        for i in range(len(shape))
    ]


def syt_count(shape: Partition) -> int:
    """Number of standard tableaux of a valid shape (hook-length formula)."""
    denom = 1
    for row in hook_lengths(shape):
        for h in row:
            denom *= h
    return math.factorial(sum(shape)) // denom


def _schur_dim(shape: Partition, n: int) -> int:
    """Dimension of the degree-|shape| polynomial functor of an n-space, n >= 1,
    by the hook-content formula; zero when the shape has more than n rows."""
    if len(shape) > n:
        return 0
    num = 1
    den = 1
    for i, row in enumerate(hook_lengths(shape)):
        for j, h in enumerate(row):
            num *= n + j - i
            den *= h
    if num % den:
        raise ArithmeticError(f"hook-content product not divisible for {shape}, n={n}")
    return num // den
