"""Exact linear algebra over prime fields and nilpotent-stable flag counting.

Matrices are tuples of row tuples of residues mod p; subspaces carry
their unique reduced row-echelon basis, so each subspace has exactly one
representation.  Vectors are row tuples; a matrix acts on the vector v
as the column product a*v.

Two enumerating routes count flags over one F_p.  fiber_count_brute
enumerates flags one step at a time straight from the definition.
fiber_count recurses: the first flag step ranges over subspaces of the
kernel, the problem descends to the quotient, and results are memoized
on (Jordan type, remaining jump vector, p); when the operator vanishes
the step count is a Gaussian binomial and no enumeration happens.

fiber_polynomial gives the count for every q at once, with no field at
all: the same recursion, with the enumerated tally of quotient types
replaced by its closed form, the vertical-strip Hall polynomials.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from math import prod

from .combinatorics import (
    DimVector,
    Partition,
    check_dimvec,
    check_partition,
    conjugate,
    n_stat,
)
from .qpoly import LaurentPoly, gaussian_binomial

DEFAULT_BUDGET = 10**8

# Running tally of canonical forms produced by subspace enumeration.
STATS = {"subspaces": 0}


class BudgetExceeded(RuntimeError):
    """An enumeration would overrun the configured subspace budget."""


class Budget:
    """Caps the number of canonical forms one counting call may produce."""

    def __init__(self, limit: int | None = None):
        self.limit = DEFAULT_BUDGET if limit is None else int(limit)
        if self.limit < 0:
            raise ValueError("budget must be non-negative")
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(
                f"subspace budget exhausted ({self.used} > {self.limit})")


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
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


@dataclass(frozen=True)
class PrimeField:
    """The field with p elements; elements are residues 0..p-1."""

    p: int

    def __post_init__(self):
        check_prime(self.p)

    def elements(self) -> range:
        return range(self.p)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        r = pow(a, self.p - 2, self.p)
        if (a * r) % self.p != 1:
            raise ArithmeticError("inverse failed its multiplication check")
        return r


def _rref(rows, p: int):
    """Reduced row echelon form: (pivot columns, nonzero rows)."""
    mat = [list(r) for r in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] % p), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c] % p, p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                f = mat[i][c] % p
                row_r = mat[r]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], row_r)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(pivots), tuple(tuple(row) for row in mat[:r])


def _rank(rows, p: int) -> int:
    mat = [list(r) for r in rows]
    n = len(mat)
    if n == 0:
        return 0
    ncols = len(mat[0])
    rank = 0
    for c in range(ncols):
        pr = next((i for i in range(rank, n) if mat[i][c] % p), None)
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        prow = mat[rank]
        inv = pow(prow[c] % p, p - 2, p)
        for i in range(rank + 1, n):
            f = (mat[i][c] * inv) % p
            if f:
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], prow)]
        rank += 1
        if rank == n:
            break
    return rank


def _matmul(a, b, p: int):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt) for row in a
    )


@dataclass(frozen=True)
class FqMatrix:
    """Matrix over F_p as a tuple of row tuples of residues."""

    p: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, rows, p) -> "FqMatrix":
        p = check_prime(p)
        normalized = tuple(tuple(int(x) % p for x in row) for row in rows)
        if len({len(r) for r in normalized}) > 1:
            raise ValueError("rows have mixed lengths")
        return cls(p, normalized)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def apply(self, vec) -> tuple[int, ...]:
        """The column product a * vec."""
        return tuple(sum(x * y for x, y in zip(row, vec)) % self.p for row in self.rows)

    def mul(self, other: "FqMatrix") -> "FqMatrix":
        if self.p != other.p or self.ncols != other.nrows:
            raise ValueError("incompatible matrices")
        return FqMatrix(self.p, _matmul(self.rows, other.rows, self.p))

    def rank(self) -> int:
        return _rank(self.rows, self.p)

    def transpose(self) -> "FqMatrix":
        return FqMatrix(self.p, tuple(zip(*self.rows)) if self.rows else ())

    @property
    def is_zero(self) -> bool:
        return all(not any(row) for row in self.rows)


@dataclass(frozen=True)
class FqSubspace:
    """Subspace of F_p^n held as its canonical reduced row-echelon basis."""

    p: int
    ambient: int
    pivots: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def span(cls, vectors, p, ambient: int | None = None) -> "FqSubspace":
        p = check_prime(p)
        vecs = [tuple(int(x) % p for x in v) for v in vectors]
        if ambient is None:
            if not vecs:
                raise ValueError("ambient dimension required for an empty span")
            ambient = len(vecs[0])
        if any(len(v) != ambient for v in vecs):
            raise ValueError("vectors have mixed lengths")
        if not vecs:
            return cls(p, ambient, (), ())
        pivots, rows = _rref(vecs, p)
        return cls(p, ambient, pivots, rows)

    @classmethod
    def full(cls, n: int, p) -> "FqSubspace":
        p = check_prime(p)
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls(p, n, tuple(range(n)), rows)

    @classmethod
    def zero(cls, n: int, p) -> "FqSubspace":
        return cls(check_prime(p), n, (), ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> tuple[int, ...]:
        """Canonical representative of vec modulo this subspace."""
        w = [int(x) % self.p for x in vec]
        for row, c in zip(self.rows, self.pivots):
            f = w[c]
            if f:
                w = [(x - f * y) % self.p for x, y in zip(w, row)]
        return tuple(w)

    def contains_vector(self, vec) -> bool:
        return not any(self.reduce(vec))

    def contains(self, other: "FqSubspace") -> bool:
        return all(self.contains_vector(row) for row in other.rows)


def _echelon_bases(m: int, k: int, p: int, budget: Budget | None = None):
    """Canonical RREF bases of all k-subspaces of F_p^m, one per subspace."""
    for pivot_cols in combinations(range(m), k):
        pivot_set = set(pivot_cols)
        free = [
            (i, j)
            for i in range(k)
            for j in range(m)
            if j > pivot_cols[i] and j not in pivot_set
        ]
        for values in product(range(p), repeat=len(free)):
            if budget is not None:
                budget.charge()
            STATS["subspaces"] += 1
            rows = [[0] * m for _ in range(k)]
            for i, c in enumerate(pivot_cols):
                rows[i][c] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield pivot_cols, tuple(tuple(r) for r in rows)


def _combine(srows, base_rows, p: int):
    """Rows of S * B for coefficient rows S over the basis rows B."""
    width = len(base_rows[0]) if base_rows else 0
    return tuple(
        tuple(
            sum(c * row[t] for c, row in zip(srow, base_rows) if c) % p
            for t in range(width)
        )
        for srow in srows
    )


def enumerate_subspaces(ambient: FqSubspace, k: int, *, budget: Budget | None = None):
    """Yield every k-dimensional subspace of `ambient` exactly once.

    Subspaces come out as canonical echelon bases inside the ambient's
    coordinates; the total count equals the Gaussian binomial at p.
    """
    if not 0 <= k <= ambient.dim:
        raise ValueError(f"k must lie in 0..{ambient.dim}, got {k}")
    m = ambient.dim
    whole = ambient.dim == ambient.ambient
    for spivots, srows in _echelon_bases(m, k, ambient.p, budget=budget):
        if whole:
            yield FqSubspace(ambient.p, ambient.ambient, spivots, srows)
        else:
            rows = _combine(srows, ambient.rows, ambient.p)
            pivots = tuple(ambient.pivots[c] for c in spivots)
            yield FqSubspace(ambient.p, ambient.ambient, pivots, rows)


def jordan_matrix(lam, p) -> FqMatrix:
    """Block-diagonal nilpotent with ones on each block's superdiagonal."""
    lam = check_partition(lam)
    p = check_prime(p)
    d = sum(lam)
    rows = [[0] * d for _ in range(d)]
    start = 0
    for part in lam:
        for i in range(start, start + part - 1):
            rows[i][i + 1] = 1
        start += part
    return FqMatrix(p, tuple(tuple(r) for r in rows))


def _nilpotent_type(rows, p: int) -> Partition:
    """Jordan type from the rank sequence of powers; raises if not nilpotent."""
    k = len(rows)
    if k == 0:
        return ()
    ranks = [k]
    power = rows
    for _ in range(k):
        r = _rank(power, p)
        ranks.append(r)
        if r == 0:
            break
        power = _matmul(power, rows, p)
    if ranks[-1] != 0:
        raise ValueError("matrix is not nilpotent")
    cols = tuple(ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1))
    return conjugate(check_partition(cols))


def jordan_type(a: FqMatrix) -> Partition:
    """Jordan type of a nilpotent matrix."""
    if a.nrows != a.ncols:
        raise ValueError("jordan_type needs a square matrix")
    return _nilpotent_type(a.rows, a.p)


def kernel_subspace(a: FqMatrix) -> FqSubspace:
    """Null space of a, canonicalized."""
    pivots, rows = _rref(a.rows, a.p)
    n = a.ncols
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        vec = [0] * n
        vec[f] = 1
        for row, c in zip(rows, pivots):
            vec[c] = (-row[f]) % a.p
        basis.append(vec)
    return FqSubspace.span(basis, a.p, ambient=n)


def _induced_type(acols, vpivots, vrows, dim: int, p: int) -> Partition:
    # Jordan type of the operator induced on ambient/v; the classes of
    # the non-pivot coordinates form a basis of the quotient.
    rest = [j for j in range(dim) if j not in vpivots]
    k = len(rest)
    if k == 0:
        return ()
    out = [[0] * k for _ in range(k)]
    for jj, j in enumerate(rest):
        w = acols[j]
        fs = [w[c] for c in vpivots]
        if any(fs):
            for ii, t in enumerate(rest):
                x = w[t]
                for f, row in zip(fs, vrows):
                    if f:
                        x -= f * row[t]
                out[ii][jj] = x % p
        else:
            for ii, t in enumerate(rest):
                out[ii][jj] = w[t] % p
    return _nilpotent_type(tuple(tuple(r) for r in out), p)


def quotient_type(a: FqMatrix, v: FqSubspace) -> Partition:
    """Jordan type of the map induced by a on ambient/v.

    v must be annihilated by a (sit inside the kernel), otherwise the
    induced map is not defined and a usage error is raised.
    """
    if a.nrows != a.ncols:
        raise ValueError("quotient_type needs a square matrix")
    if v.ambient != a.ncols or v.p != a.p:
        raise ValueError("subspace does not match the matrix")
    for row in v.rows:
        if any(a.apply(row)):
            raise ValueError("subspace is not annihilated by the matrix")
    acols = tuple(a.column(j) for j in range(a.ncols))
    return _induced_type(acols, v.pivots, v.rows, a.ncols, a.p)


@dataclass(frozen=True)
class FiberCountRecord:
    """One exact count of flags compatible with a fixed nilpotent.

    `lam` is the Jordan type (JSON key "lambda"), `dimvec` the flag jump
    vector, q the prime, count the number of F_q-rational flags.
    """

    lam: Partition
    dimvec: DimVector
    q: int
    count: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "lambda": list(self.lam),
                "dimvec": list(self.dimvec),
                "q": self.q,
                "count": self.count,
            },
            separators=(",", ":"),
        )


def _flag_total(dimvec, q: int) -> int:
    """All flags of this type in F_q^d: the Gaussian multinomial [d; dimvec]_q."""

    def q_factorial(k: int) -> int:  # times (q-1)^k, which cancels
        return prod(q**j - 1 for j in range(1, k + 1))

    return q_factorial(sum(dimvec)) // prod(q_factorial(k) for k in dimvec)


class CountCache:
    """Fiber-count store backed by an append-only JSONL file.

    One record per line: {"lambda":[2,1],"dimvec":[1,1,1],"q":5,"count":11}.
    A missing file reads as empty; each new record is appended as a
    single flushed line.  An unparsable final line is a torn write: it is
    ignored, and cut off before the next append.  An unparsable line
    anywhere else is an error naming the file and line.  A cached count
    outside 0 <= count <= [d; dimvec]_q cannot be right, so a lookup
    treats it as a miss and the recount replaces it.
    """

    def __init__(self, path=None):
        self.path = os.fspath(path) if path is not None else None
        self._mem: dict[tuple, int] = {}
        self._torn_at: int | None = None  # byte offset of a torn final line
        if self.path is None or not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            data = fh.read()
        lines = data.split(b"\n")
        last = max((i for i, line in enumerate(lines) if line.strip()), default=-1)
        offset = 0
        for i, line in enumerate(lines):
            start, offset = offset, offset + len(line) + 1
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                key = (tuple(rec["lambda"]), tuple(rec["dimvec"]), int(rec["q"]))
                count = int(rec["count"])
            except (ValueError, KeyError, TypeError) as exc:
                if i == last:
                    self._torn_at = start
                    break
                raise ValueError(
                    f"{self.path}:{i + 1}: malformed cache record: {exc}") from None
            self._mem[key] = count

    def get(self, lam, dimvec, q) -> int | None:
        count = self._mem.get((tuple(lam), tuple(dimvec), int(q)))
        if count is None or not 0 <= count <= _flag_total(dimvec, q):
            return None
        return count

    def put(self, record: FiberCountRecord) -> None:
        key = (record.lam, record.dimvec, record.q)
        if self._mem.get(key) == record.count:
            return
        self._mem[key] = record.count
        if self.path is not None:
            with open(self.path, "a+b") as fh:
                if self._torn_at is not None:
                    fh.truncate(self._torn_at)
                    self._torn_at = None
                # a last line that lost only its newline must not absorb this one
                if fh.seek(0, os.SEEK_END):
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        fh.write(b"\n")
                fh.write(record.to_json().encode() + b"\n")
                fh.flush()

    def __len__(self) -> int:
        return len(self._mem)


def count_flags(a: FqMatrix, dimvec, *, budget=None) -> int:
    """Count flags with jump vector dimvec moved one step down by a.

    Direct enumeration of the definition: flags 0 = V_0 <= ... <= V_n,
    dim(V_i/V_{i-1}) = dimvec[i-1], with a(V_i) inside V_{i-1} at every
    step.  This is the oracle route: no memoization, no closed forms.
    """
    dims = check_dimvec(dimvec)
    if a.nrows != a.ncols:
        raise ValueError("count_flags needs a square matrix")
    if sum(dims) != a.nrows:
        raise ValueError("dimension vector total and matrix size differ")
    bud = _as_budget(budget)
    p = a.p
    d = a.nrows
    acols = [a.column(j) for j in range(d)]
    n = len(dims)

    def extensions(v: FqSubspace, k: int):
        # one lift per subspace of the quotient ambient/v
        rest = [j for j in range(d) if j not in v.pivots]
        for _, srows in _echelon_bases(len(rest), k, p, budget=bud):
            lifted = []
            for srow in srows:
                vec = [0] * d
                for c, val in zip(rest, srow):
                    if val:
                        vec[c] = val
                lifted.append(tuple(vec))
            yield lifted

    def level(i: int, v: FqSubspace) -> int:
        if i == n - 1:
            # V_n is everything; a(V_n) <= V_{n-1} says the image sits in v
            return 1 if all(v.contains_vector(col) for col in acols) else 0
        total = 0
        for lifted in extensions(v, dims[i]):
            if all(v.contains_vector(a.apply(row)) for row in lifted):
                w = FqSubspace.span(tuple(v.rows) + tuple(lifted), p, ambient=d)
                total += level(i + 1, w)
        return total

    return level(0, FqSubspace.zero(d, p))


def fiber_count_brute(lam, dimvec, p, *, budget=None) -> FiberCountRecord:
    """Exact flag count by direct enumeration (the oracle route)."""
    lam = check_partition(lam)
    dimvec = check_dimvec(dimvec)
    p = check_prime(p)
    if sum(lam) != sum(dimvec):
        raise ValueError("partition size and dimension vector total differ")
    count = count_flags(jordan_matrix(lam, p), dimvec, budget=budget)
    return FiberCountRecord(lam, dimvec, p, count)


# memo: (jordan type, remaining jumps, p) -> count
_MEMO: dict = {}
# tally: (jordan type, first jump, p) -> ((quotient type, multiplicity), ...)
_TALLY: dict = {}


def reset_caches() -> None:
    """Drop the in-process memo tables (mainly for tests and benchmarks)."""
    _MEMO.clear()
    _TALLY.clear()


def _kernel_quotient_tally(lam, d1: int, p: int, budget: Budget):
    key = (lam, d1, p)
    hit = _TALLY.get(key)
    if hit is not None:
        return hit
    a = jordan_matrix(lam, p)
    ker = kernel_subspace(a)
    budget.charge(gaussian_binomial(ker.dim, d1)(p))
    acols = tuple(a.column(j) for j in range(a.ncols))
    d = a.ncols
    counts: dict[Partition, int] = {}
    for spivots, srows in _echelon_bases(ker.dim, d1, p):
        vrows = _combine(srows, ker.rows, p)
        vpivots = tuple(ker.pivots[c] for c in spivots)
        tau = _induced_type(acols, vpivots, vrows, d, p)
        counts[tau] = counts.get(tau, 0) + 1
    result = tuple(sorted(counts.items()))
    _TALLY[key] = result
    return result


def _flag_count(lam: Partition, dims: DimVector, p: int, budget: Budget) -> int:
    key = (lam, dims, p)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    d = sum(lam)
    if len(dims) == 1:
        # the single step is the whole space; a must vanish on it
        count = 1 if all(part == 1 for part in lam) else 0
    elif lam and lam[0] > len(dims):
        # an n-step flag forces a^n = 0, so blocks longer than n kill the fiber
        count = 0
    elif all(part == 1 for part in lam):
        # a = 0: any first step works and the quotient type is forced
        d1 = dims[0]
        choices = gaussian_binomial(d, d1)(p)
        count = (
            choices * _flag_count((1,) * (d - d1), dims[1:], p, budget)
            if choices
            else 0
        )
    else:
        d1 = dims[0]
        if d1 > len(lam):
            # the first step must land inside the kernel
            count = 0
        else:
            count = 0
            for tau, mult in _kernel_quotient_tally(lam, d1, p, budget):
                count += mult * _flag_count(tau, dims[1:], p, budget)
    _MEMO[key] = count
    return count


def fiber_count(lam, dimvec, p, *, budget=None, cache: CountCache | None = None) -> FiberCountRecord:
    """Exact flag count via the kernel/quotient recursion (the fast route).

    Agrees with fiber_count_brute everywhere; memoized on (Jordan type,
    remaining jump vector, p).
    """
    lam = check_partition(lam)
    dimvec = check_dimvec(dimvec)
    p = check_prime(p)
    if sum(lam) != sum(dimvec):
        raise ValueError("partition size and dimension vector total differ")
    if cache is not None:
        hit = cache.get(lam, dimvec, p)
        if hit is not None:
            return FiberCountRecord(lam, dimvec, p, hit)
    count = _flag_count(lam, dimvec, p, _as_budget(budget))
    record = FiberCountRecord(lam, dimvec, p, count)
    if cache is not None:
        cache.put(record)
    return record


@cache
def _strip_tally(lam: Partition, m: int) -> tuple[tuple[Partition, LaurentPoly], ...]:
    """Vertical m-strips lam/mu, each with its Hall polynomial G_{lam,mu}(q).

    G counts the m-dimensional subspaces U of ker(a), for a nilpotent a
    of type lam, such that a induces type mu on the quotient by U
    (Macdonald, Symmetric Functions and Hall Polynomials, II (4.6)):
    q^(n(lam)-n(mu)-n(1^m)) * prod_i [lam'_i-lam'_{i+1} choose lam'_i-mu'_i]_(1/q).
    A strip takes b_i <= lam'_i - lam'_{i+1} boxes from the foot of
    column i, and [g choose b]_(1/q) = q^(-b(g-b)) [g choose b]_q.
    """
    cols = conjugate(lam)
    gaps = [c - nxt for c, nxt in zip(cols, cols[1:] + (0,))]
    base = n_stat(lam) - m * (m - 1) // 2
    out = []
    for taken in product(*(range(g + 1) for g in gaps)):
        if sum(taken) != m:
            continue
        mu = conjugate(tuple(c - b for c, b in zip(cols, taken) if c > b))
        g_poly = LaurentPoly.one()
        shift = base - n_stat(mu)
        for g, b in zip(gaps, taken):
            g_poly = g_poly * gaussian_binomial(g, b)
            shift -= b * (g - b)
        out.append((mu, g_poly.shift(shift)))
    return tuple(out)


@cache
def _fiber_poly(lam: Partition, dims: DimVector) -> LaurentPoly:
    if len(dims) == 1:
        # the single step is the whole space; a must vanish on it
        return LaurentPoly.one() if all(part == 1 for part in lam) else LaurentPoly()
    total = LaurentPoly()
    for mu, g_poly in _strip_tally(lam, dims[0]):
        total = total + g_poly * _fiber_poly(mu, dims[1:])
    return total


def fiber_polynomial(lam, dimvec) -> LaurentPoly:
    """The polynomial in q giving the flag count over every prime field.

    The first flag step is an m = dimvec[0] dimensional subspace of
    ker(a); the quotient types it can leave are the mu with lam/mu a
    vertical m-strip, reached in G_{lam,mu}(q) ways.  Summing over chains
    of strips gives the count symbolically: no primes, no enumeration.
    """
    lam = check_partition(lam)
    dimvec = check_dimvec(dimvec)
    if sum(lam) != sum(dimvec):
        raise ValueError("partition size and dimension vector total differ")
    return _fiber_poly(lam, dimvec)
