"""Nilpotent-stable flag counting over prime fields.

A vector of F_p^d is one int: coordinate j is the base-p digit in bits
width*j.., with width one bit more than p - 1 needs, so a digitwise sum
stays inside its digit and one carry test reduces it mod p.  Both routes
that enumerate subspaces hold their vectors so.

fiber_count_brute counts flags over F_p straight from the definition,
one step at a time.  fiber_count recurses in _flag_sum over the first
flag step, a subspace U of the kernel, into the quotient by U, memoized
on (Jordan type, remaining jumps); a zero jump repeats a subspace, so
every route counts a dimension vector as its nonzero composition.  When
the operator vanishes, every m-subspace leaves type 1^(d-m), in [d; m]_p
ways, and nothing is enumerated; otherwise each U is visited in the
kernel's own coordinates and the quotient type is read from U's right
pivots, with no matrix built.  _right_pivot_census walks the U as leaves
of their echelon rows: one Gray odometer walks every row's choices at
one packed add mod p each, and each lower row joins the prefix's packed
basis through a table of its multiples.  Both routes at p charge the
Budget for each batch of subspaces, [m; k]_p, before they enumerate it.
For the polynomial in q, the quotient types have a closed form, the
vertical-strip Hall polynomials, taken at q = 2^B by _strip_step:
fiber_polynomial steps along one composition, _fibers along all of them
in one walk per Jordan type, and the base-2^B digits give the polynomial.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, chain, combinations, product, repeat
from math import factorial

from .combinatorics import (
    DimVector,
    Partition,
    _strips,
    check_dimvec,
    check_int,
    check_partition,
    conjugate,
    n_stat,
)
from .qpoly import LaurentPoly, _digits, _gauss

DEFAULT_BUDGET = 10**8

# Subspaces enumerated by this process; Budget.charge adds each admitted batch.
STATS = {"subspaces": 0}


class BudgetExceeded(RuntimeError):
    """An enumeration would overrun the configured subspace budget."""


class Budget:
    """Caps the subspaces one run enumerates, and holds the tables it fills.

    A run is every call sharing this Budget, or one call given none;
    charge is the one place where enumeration is paid for and counted.
    The memo p -> {(Jordan type, remaining nonzero jumps) -> count}, the
    tally (Jordan type, first jump, p) -> ((quotient type, multiplicity),
    ...), the last walk, ((lam, n), lam's fibers), and the charge table
    (P, lam) -> modified charge polynomial live here: no outcome depends on
    what the process computed before, nor is a count reused unpaid for.
    """

    def __init__(self, limit: int | None = None):
        self.limit = DEFAULT_BUDGET if limit is None else check_int(limit)
        if self.limit < 0:
            raise ValueError("budget must be non-negative")
        self.used = 0
        self.memo: dict[int, dict[tuple, int]] = {}
        self.tally: dict[tuple, tuple] = {}
        self.fibers: tuple = (None, {})
        self.charges: dict[tuple, LaurentPoly] = {}

    def charge(self, amount: int) -> None:
        """Pay for a batch of amount subspaces before enumerating it."""
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(
                f"subspace budget exhausted ({self.used} > {self.limit})")
        STATS["subspaces"] += amount


def _named(lam, dimvec, p: int, count, *args) -> int:
    """count(*args), whose refusal names the instance it counts: its Jordan
    type lam, its dimension vector and its prime."""
    try:
        return count(*args)
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            f"{exc} counting lambda={list(lam)}, dimvec={list(dimvec)}, q={p}") from None


def _as_budget(budget) -> Budget:
    return budget if isinstance(budget, Budget) else Budget(budget)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def check_prime(p) -> int:
    p = check_int(p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def fiber_count_brute(lam, dimvec, p, *, budget=None) -> int:
    """Exact flag count by direct enumeration (the oracle route)."""
    lam = check_partition(lam)
    dimvec = check_dimvec(dimvec)
    p = check_prime(p)
    if sum(lam) != sum(dimvec):
        raise ValueError("partition size and dimension vector total differ")
    return _named(lam, dimvec, p, _count_flags, lam, dimvec, p, _as_budget(budget))


def _count_flags(lam: Partition, dims: DimVector, p: int, bud: Budget) -> int:
    """Flags 0 = V_0 <= ... <= V_n of F_p^d, dim(V_i/V_{i-1}) = dims[i-1],
    with a(V_i) inside V_{i-1} at every step, for a of Jordan type lam:
    direct enumeration of the definition, with no memo and no closed form.

    Coordinate j is digit j, and a sends e_j to e_(j-1) inside its block
    and the block's first e_j to 0, so a(w) is one shift and one mask.
    V_i is held as its echelon rows, by pivot: each row is zero left of
    its pivot and 1 there, with its multiples by 0..p-1.  Each step
    writes the rows of one basis per subspace of the quotient by V_i on
    the columns that are no pivot yet, and keeps the rows whose image
    lies in V_i; w lies in V_i when clearing its digits at the pivots,
    left to right, leaves nothing.
    """
    d = sum(lam)
    n = len(dims)
    width = (p - 1).bit_length() + 1  # a digit sum below 2p fits, with a bit to spare
    mask = (1 << width) - 1
    ones = sum(1 << (width * j) for j in range(d))
    high = ones << (width - 1)
    lift = ones * ((1 << (width - 1)) - p)  # carries into a digit's high bit iff it reaches p
    last = {stop - 1 for stop in accumulate(lam)}  # each block's last digit
    keep = sum(mask << (width * j) for j in range(d) if j not in last)

    def add(x, y):  # digitwise x + y mod p
        s = x + y
        return s - (((s + lift) & high) >> (width - 1)) * p

    def a(w):  # e_j -> e_(j-1), and each block's first e_j -> 0
        return (w >> width) & keep

    def inside(w, rows):
        for c, times in rows:
            x = (w >> (width * c)) & mask
            if x:
                w = add(w, times[p - x])
        return not w

    def level(i: int, rest: tuple[int, ...], rows) -> int:
        if i == n - 1:
            # V_n is everything; a(V_n) <= V_{n-1} says each a(e_j) lies in it
            return int(all(inside(a(1 << (width * j)), rows) for j in range(d)))
        bud.charge(_gauss(len(rest), dims[i], p))
        total = 0
        for pivots in combinations(rest, dims[i]):
            left = tuple(j for j in rest if j not in pivots)
            stable = []
            for c in pivots:
                free = [1 << (width * j) for j in left if j > c]
                words = ((1 << (width * c)) + sum(x * u for x, u in zip(xs, free))
                         for xs in product(range(p), repeat=len(free)))
                stable.append([(c, list(accumulate(repeat(v, p - 1), add, initial=0)))
                               for v in words if inside(a(v), rows)])
            for new in product(*stable):
                total += level(i + 1, left, sorted(rows + list(new)))
        return total

    return level(0, tuple(range(d)), [])


# words per cached Gray table; longer walks chain copies of one, so a large
# prime costs no memory in proportion to p^f
_GRAY_TABLE = 4096


@cache
def _gray_table(f: int, p: int) -> tuple[int, ...]:
    if not f:
        return ()
    inner = _gray_table(f - 1, p)
    return (inner + (f - 1,)) * (p - 1) + inner


def _gray_steps(f: int, p: int):
    """The digit that each step of the p-ary modular Gray code on f digits
    raises by one mod p; the p^f - 1 steps visit every word from 0 once.
    The walk on f digits is p walks on f - 1 of them, joined by steps of
    digit f - 1."""
    if p ** f <= _GRAY_TABLE:
        return _gray_table(f, p)
    walks = [_gray_steps(f - 1, p) for _ in range(p)]
    return chain(walks[0], *(chain((f - 1,), walk) for walk in walks[1:]))


def _right_pivot_census(ell: int, k: int, p: int) -> dict[tuple[int, ...], int]:
    """The k-subspaces U of F_p^ell counted by their right pivots, the
    columns where the rank of U's coordinates c.. grows as c falls.

    U is visited once per RREF basis, rows chosen from the last up.  The
    row with pivot c, reduced against the rows below it, is e_c + sum x_j
    g_j over the columns j past c that are no lower row's pivot, with g_j
    = e_j minus the lower row whose right pivot is j, or e_j if there is
    none; its last nonzero column is its right pivot.  Each prefix keeps
    its g_j by right pivot, packed as base-p words in an int, digit j in
    bits width*j.., and a Gray odometer walks the p^f choices of x one
    g_j at a time: one fieldwise add mod p per choice, which then joins
    the basis, or, in the first row, is a U tallied by one bit_length.
    """
    if not k:
        return {(): 1}
    width = (p - 1).bit_length() + 1  # a digit sum below 2p fits, with a bit to spare
    mask = (1 << width) - 1
    ones = sum(1 << (width * j) for j in range(ell))
    high = ones << (width - 1)
    lift = ones * ((1 << (width - 1)) - p)  # carries into a digit's high bit iff it reaches p
    hits: dict[frozenset[int], list[int]] = {}

    def add(x, y):  # digitwise x + y mod p
        s = x + y
        return s - (((s + lift) & high) >> (width - 1)) * p

    def insert(basis, v):
        # the g_j of basis + v, for v reduced against basis: v's top digit a
        # sits at its right pivot t, each g_j loses (g_j[t] / a) v, taken
        # from the multiples of v, and g_t = e_t - v / a
        t = (v.bit_length() - 1) // width
        inv = pow(v >> (width * t), p - 2, p)
        times = list(accumulate(repeat(v, p - 1), add, initial=0))
        out = {}
        for j, g in basis.items():
            x = (g >> (width * t)) & mask
            out[j] = add(g, times[-x * inv % p]) if x else g
        out[t] = add(1 << (width * t), times[-inv % p])
        return out

    def place(i, first, lefts, basis):
        # rows i.. are chosen; row i - 1 takes a pivot c left of first, and
        # as every pivot in lefts lies at or right of first, the g_j of the
        # columns past c not in lefts are the suffix free[c + 1:]
        free = [basis.get(j, 1 << (width * j)) for j in range(ell) if j not in lefts]
        if i == 1:
            tally = hits.setdefault(frozenset(basis), [0] * (width * ell + 1))
            for c0 in range(first):
                v = 1 << (width * c0)
                tally[v.bit_length()] += 1
                gens = free[c0 + 1:]
                for j in _gray_steps(len(gens), p):
                    # add(v, gens[j]), inlined: this runs once per U
                    s = v + gens[j]
                    v = s - (((s + lift) & high) >> (width - 1)) * p
                    tally[v.bit_length()] += 1
            return
        for c in range(i - 1, first):
            v = 1 << (width * c)
            below = lefts | {c}
            gens = free[c + 1:]
            place(i - 1, c, below, insert(basis, v))
            for j in _gray_steps(len(gens), p):
                v = add(v, gens[j])
                place(i - 1, c, below, insert(basis, v))

    place(k, ell, frozenset(), {})
    census: dict[tuple[int, ...], int] = {}
    for prefix, tally in hits.items():
        for bits, count in enumerate(tally):
            if count:
                pivots = tuple(sorted((*prefix, (bits - 1) // width)))
                census[pivots] = census.get(pivots, 0) + count
    return census


def _kernel_quotient_tally(lam, d1: int, p: int, budget: Budget):
    """The quotient types left by the d1-subspaces U of ker(a), for a of
    type lam, each with the number of U that leave it.

    The kernel's basis is the first vector of each Jordan block, so
    W_k = ker a & im a^k is spanned by the first conjugate(lam)[k] of
    them.  As U lies in ker a, U & im a^k = U & W_k, and
    dim ker(a^k on V/U) = dim ker a^k - rank(U's rows without W_k's
    coordinates); its steps in k are the columns of the quotient type.
    Those ranks are read from U's right pivots, the columns where the
    rank of its coordinates c.. grows, so U is counted under its pivot
    set and each distinct set becomes a quotient type once.
    """
    key = (lam, d1, p)
    hit = budget.tally.get(key)
    if hit is not None:
        return hit
    ell = len(lam)
    budget.charge(_gauss(ell, d1, p))
    cols = conjugate(lam)
    counts: dict[Partition, int] = {}
    for pivots, count in _right_pivot_census(ell, d1, p).items():
        # the rank of the coordinates c.. is the number of pivots at or after c
        ranks = [sum(1 for j in pivots if j >= c) for c in cols + (0,)]
        tau_cols = [c - r1 + r0 for c, r0, r1 in zip(cols, ranks, ranks[1:])]
        tau = conjugate(tuple(c for c in tau_cols if c))
        counts[tau] = counts.get(tau, 0) + count
    result = tuple(sorted(counts.items()))
    budget.tally[key] = result
    return result


def _nonzero(dimvec: DimVector) -> DimVector:
    """dimvec without its zero jumps, which repeat a subspace and leave
    the flag variety unchanged."""
    return tuple(filter(None, dimvec))


def _flag_sum(lam: Partition, dims: DimVector, p: int, budget: Budget) -> int:
    """Flags of type lam with jumps dims over F_p, summed over the quotient
    types mu that a dims[0]-subspace of ker(a) leaves, times their counts."""
    memo = budget.memo.setdefault(p, {})
    key = (lam, dims)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if len(dims) <= 1:
        # the single step, if any, is the whole space; a must vanish on it
        total = 1 if all(part == 1 for part in lam) else 0
    elif lam and lam[0] > len(dims):
        # an n-step flag forces a^n = 0, so blocks longer than n kill the fiber
        total = 0
    else:
        # a = 0: every d1-subspace leaves type 1^(d-d1); none is enumerated
        tally = ([((1,) * (len(lam) - dims[0]), _gauss(len(lam), dims[0], p))] if lam[0] == 1
                 else _kernel_quotient_tally(lam, dims[0], p, budget))
        total = sum(weight * _flag_sum(mu, dims[1:], p, budget) for mu, weight in tally)
    memo[key] = total
    return total


def fiber_count(lam, dimvec, p, *, budget=None) -> int:
    """Exact flag count via the kernel/quotient recursion (the fast route).

    Agrees with fiber_count_brute everywhere.  An int or None budget
    starts a fresh Budget; pass a Budget to share its limit and its memo
    across calls.  A refusal names the instance that ran out.
    """
    lam = check_partition(lam)
    dimvec = check_dimvec(dimvec)
    p = check_prime(p)
    if sum(lam) != sum(dimvec):
        raise ValueError("partition size and dimension vector total differ")
    return _fiber_count(lam, dimvec, p, _as_budget(budget))


def _fiber_count(lam: Partition, dimvec: DimVector, p: int, budget: Budget) -> int:
    """The count of fiber_count for a valid instance."""
    return _named(lam, dimvec, p, _flag_sum, lam, _nonzero(dimvec), p, budget)


@cache
def _strip_tally(lam: Partition, m: int, q: int) -> tuple[tuple[Partition, int], ...]:
    """Vertical m-strips lam/mu, each with its Hall polynomial G_{lam,mu} at q.

    G counts the m-dimensional subspaces U of ker(a), for a nilpotent a
    of type lam, such that a induces type mu on the quotient by U
    (Macdonald, Symmetric Functions and Hall Polynomials, II (4.6)):
    q^(n(lam)-n(mu)-n(1^m)) * prod_i [lam'_i-lam'_{i+1} choose lam'_i-mu'_i]_(1/q).
    The conjugate lam'/mu' is a horizontal strip: b_i <= lam'_i - lam'_{i+1} boxes
    leave the foot of column i, and [g choose b]_(1/q) = q^(-b(g-b)) [g choose b]_q.
    Each [g choose b]_q starts at 1, so q^shift is G's lowest term: shift >= 0.
    """
    cols = conjugate(lam)
    gaps = [c - nxt for c, nxt in zip(cols, cols[1:] + (0,))]
    base = n_stat(lam) - m * (m - 1) // 2
    out = []
    for inner, taken in _strips(cols, m):
        mu = conjugate(inner)
        weight = 1
        shift = base - n_stat(mu)
        for g, b in zip(gaps, taken):
            weight *= _gauss(g, b, q)
            shift -= b * (g - b)
        out.append((mu, weight * q**shift))
    return tuple(out)


def _bits(d: int) -> int:
    """B for a size d: each fiber polynomial's coefficients lie below 2^B."""
    return factorial(d).bit_length()


def _strip_step(table: dict, part: int, q: int, room: int) -> dict:
    """The types left by a part-dimensional step, weighted at q: mu gives each vertical
    part-strip mu/nu times G_{mu,nu}(q), unless nu_1 > room, the steps to come."""
    out: dict[Partition, int] = {}
    for mu, weight in table.items():
        for nu, g in _strip_tally(mu, part, q):
            if not nu or nu[0] <= room:
                out[nu] = out.get(nu, 0) + weight * g
    return out


def _fibers(lam: Partition, n: int, budget: Budget) -> dict[DimVector, int]:
    """lam's nonzero fibers at q = 2^_bits(d) by composition of at most n parts,
    walked part by part, first to last, and kept on the Budget until another (lam, n)."""
    if budget.fibers[0] != (lam, n):
        # a stack, not a recursive closure: one that names itself is a cycle,
        # which holds each walk's fibers until a full garbage collection
        q, out, stack = 1 << _bits(sum(lam)), {}, [((), {lam: 1}, sum(lam))]
        while stack:
            prefix, table, left = stack.pop()
            if not left:
                out[prefix] = table[()]
                continue
            for part in range(1 if len(prefix) < n - 1 else left, left + 1):  # a last part: all
                if after := _strip_step(table, part, q, n - len(prefix) - 1):
                    stack.append((prefix + (part,), after, left - part))
        budget.fibers = (lam, n), out
    return budget.fibers[1]


def fiber_polynomial(lam, dimvec) -> LaurentPoly:
    """The polynomial in q giving the flag count over every prime field.

    The first flag step is an m = dimvec[0] dimensional subspace of
    ker(a); the quotient types it can leave are the mu with lam/mu a
    vertical m-strip, reached in G_{lam,mu}(q) ways.  Summing over chains
    of strips gives the count symbolically: no primes, no enumeration.
    The sum is _strip_step along this one composition, over ints at
    q = 2^B, B = bit_length(d!), read back in base 2^B.  Each coefficient
    is below 2^B: sum_mu G_{lam,mu} = [len(lam); m]_q <= [d; m]_q
    coefficientwise, so by induction each fiber polynomial is at most
    [d; dimvec]_q, whose coefficients sum to d!/prod(dimvec_i!) <= d!.
    """
    lam = check_partition(lam)
    dimvec = check_dimvec(dimvec)
    if sum(lam) != sum(dimvec):
        raise ValueError("partition size and dimension vector total differ")
    dims, bits = _nonzero(dimvec), _bits(sum(lam))
    table = {lam: 1}
    for i, part in enumerate(dims):
        table = _strip_step(table, part, 1 << bits, len(dims) - i - 1)
    return _digits(table.get((), 0), bits)
