"""Test-side oracles that the package itself does not need.

interpolate recovers an integer polynomial from sampled values with
exact rational arithmetic.  The tests use it to rebuild count
polynomials from enumerated flag counts, independently of the
vertical-strip recursion in nilflag.flaggeo.

rhs_by_definition is the character side of the trace identity for one
(lam, dv) pair, with every multiplicity counted as the tableaux of the
unsorted content dv that ssyt_by_cells fills, as a check on
nilflag.verifier._character_side, which reads Kostka numbers from strips.

FqMatrix and FqSubspace hold F_p matrices as tuples of row tuples of
residues and subspaces as their reduced row echelon bases.  count_flags
walks flags over them one step at a time from the definition, for any
square matrix; the tests compare the package's brute-force route over
packed words, nilflag.flaggeo.fiber_count_brute, with it at
jordan_matrix(lam, p), counts and budget charges both.

enumerate_subspaces and quotient_type are the matrix route to the
kernel/quotient tally: each subspace of an ambient is lifted to ambient
coordinates, and the Jordan type of the map induced on the quotient is
read from the ranks of the powers of its matrix.  The tests compare the
package's intersection-rank tally with it.  The F_p matrix and subspace
operations that route needs (products, ranks, kernels, Jordan types,
containment) live here too, as the package itself never calls them.

lusztig_kostka_foulkes is Lusztig's q-analogue of weight multiplicity,
K_{lam,mu}(q) = sum over w in S_n of sgn(w) P_q(w(lam+rho) - (mu+rho)),
with P_q the type A q-Kostant partition function (Lusztig, "Singularities,
character formulas, and a q-analog of weight multiplicities", 1983).  The
tests compare it with the charge route, nilflag.qpoly.kostka_foulkes.

right_pivots reads the columns where the rank of a row list's
coordinates c.. grows by one elimination of the rows from the right, per
subspace; the tests compare the package's leaf-walk census with it.
right_pivots_by_rref reads the same columns from the reduced row echelon
form of the reversed rows, as a check on right_pivots.
right_pivot_cell_sizes gives the census in closed form, the size of each
right-echelon cell, for keys past the reach of one elimination per
subspace.

gauss_poly, strip_tally_poly and fiber_poly_by_strips are the vertical-
strip Hall recursion kept in LaurentPoly arithmetic: Gaussian binomials
by q-Pascal, Hall polynomials as products of them, and the sum over
chains of strips.  The tests compare the package's Gaussian binomials
and fiber polynomials, read from one integer each, with them.

ssyt_by_cells fills a shape cell by cell, row by row, with every letter
the row to its left and the column above allow; the tests compare the
package's Kostka numbers, counted by strips, and its charge polynomials,
charged over reading words filled in place, with it.

dimvec_classes_by_grouping groups the enumerated dimension vectors by
their nonzero composition; the tests compare the checks' walk over
compositions, nilflag.verifier._dimvec_classes, with it.

expand_witnesses places the nonzero entries of each class witness's
dimvec at every choice of positions, one witness per dv of the class;
the tests compare the failures a check reports once per class with the
failing dvs found one by one.

refines_by_packing decides strict refinement by packing the parts of p,
largest first, into bins the size of r's parts, and dominates_by_padding
compares prefix sums index by index with the shorter partition padded by
zeros; the tests compare the package's closure under merging parts and
its unpadded prefix sums with them.

partitions_by_recursion and dimvecs_by_recursion pick the first part or
entry and recurse on the rest; the tests compare the package's iterative
enumerators, which must list the same tuples in the same order, with them.

CACHES is every @cache table in the package, the pure tables that no
run owns; the tests that run with cold caches clear them all, and a test
finds the tables by introspection to keep the tuple whole.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from typing import NamedTuple

from nilflag import combinatorics, flaggeo
from nilflag.combinatorics import (
    DimVector,
    Partition,
    _strips,
    check_partition,
    conjugate,
    enumerate_dimvecs,
    enumerate_partitions,
    flag_dim,
    n_stat,
    sorted_weight,
)
from nilflag.flaggeo import Budget, _nonzero
from nilflag.qpoly import LaurentPoly, _gauss, _modified_kostka_foulkes

Tableau = tuple[tuple[int, ...], ...]

CACHES = (
    combinatorics._coarsenings,
    combinatorics._kostka,
    combinatorics._strips,
    flaggeo._gray_table,
    flaggeo._strip_tally,
)


# the package builds charge polynomials afresh for each run; the oracle
# reads each one at every dv, so it keeps its own table
_charge_table = cache(_modified_kostka_foulkes)


def rhs_by_definition(n: int, d: int, lam, dv, convention: str) -> LaurentPoly:
    total = LaurentPoly()
    for P in enumerate_partitions(n, d):
        shape = conjugate(P) if convention == "standard" else P
        total = total + _charge_table(P, lam) * len(ssyt_by_cells(shape, dv))
    return total.shift(flag_dim(dv) - n_stat((1,) * d))


class InterpolationError(ValueError):
    """Samples cannot be matched by an integer polynomial of the claimed degree."""


def interpolate(samples, degree_bound: int) -> LaurentPoly:
    """The unique integer polynomial of degree <= degree_bound through samples.

    Samples are (point, value) pairs; duplicated points must agree.  The
    fit uses exact rational arithmetic on degree_bound+1 points, then
    every remaining sample is checked against it.  Raises
    InterpolationError when samples are insufficient, inconsistent with
    the bound, or force non-integer coefficients.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    pts: list[tuple[int, int]] = []
    seen: dict[int, int] = {}
    for x, y in samples:
        x, y = int(x), int(y)
        if x in seen:
            if seen[x] != y:
                raise InterpolationError(f"conflicting samples at point {x}")
            continue
        seen[x] = y
        pts.append((x, y))
    if len(pts) < degree_bound + 1:
        raise InterpolationError(
            f"need {degree_bound + 1} distinct sample points, got {len(pts)}")

    base = pts[: degree_bound + 1]
    rest = pts[degree_bound + 1 :]
    coeffs = [Fraction(0)] * (degree_bound + 1)
    for i, (xi, yi) in enumerate(base):
        basis = [Fraction(1)]
        denom = 1
        for j, (xj, _) in enumerate(base):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for t, ct in enumerate(basis):
                nxt[t] -= ct * xj
                nxt[t + 1] += ct
            basis = nxt
            denom *= xi - xj
        w = Fraction(yi, denom)
        for t, ct in enumerate(basis):
            coeffs[t] += w * ct

    for x, y in rest:
        value = sum(c * x**t for t, c in enumerate(coeffs))
        if value != y:
            raise InterpolationError(
                f"sample ({x}, {y}) deviates from the degree-{degree_bound} fit")
    for t, c in enumerate(coeffs):
        if c.denominator != 1:
            raise InterpolationError(
                f"non-integer coefficient {c} at degree {t}; "
                "wrong degree bound or a counting bug")
    return LaurentPoly({t: int(c) for t, c in enumerate(coeffs) if c})


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


class FqMatrix(NamedTuple):
    """Matrix over F_p as a tuple of row tuples of residues."""

    p: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, rows, p: int) -> "FqMatrix":
        normalized = tuple(tuple(x % p for x in row) for row in rows)
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


class FqSubspace(NamedTuple):
    """Subspace of F_p^n held as its canonical reduced row-echelon basis;
    span([], p, ambient=n) is the zero subspace."""

    p: int
    ambient: int
    pivots: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def span(cls, vectors, p: int, ambient: int | None = None) -> "FqSubspace":
        vecs = [tuple(x % p for x in v) for v in vectors]
        if ambient is None:
            ambient = len(vecs[0])
        return cls(p, ambient, *_rref(vecs, p))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> tuple[int, ...]:
        """Canonical representative of vec modulo this subspace."""
        return _reduce(self, [x % self.p for x in vec])

    def contains_vector(self, vec) -> bool:
        return not any(self.reduce(vec))


def _reduce(v: FqSubspace, w) -> tuple[int, ...]:
    """FqSubspace.reduce for a vector w of residues mod v.p."""
    for row, c in zip(v.rows, v.pivots):
        f = w[c]
        if f:
            w = [(x - f * y) % v.p for x, y in zip(w, row)]
    return tuple(w)


def echelon_bases(cols, k: int, p: int, width: int):
    """Canonical RREF bases of the [len(cols); k]_p k-subspaces of F_p^width
    whose rows vanish off the increasing columns cols, one each."""
    for pivot_cols in combinations(cols, k):
        pivot_set = set(pivot_cols)
        free = [
            (i, j)
            for i in range(k)
            for j in cols
            if j > pivot_cols[i] and j not in pivot_set
        ]
        for values in product(range(p), repeat=len(free)):
            rows = [[0] * width for _ in range(k)]
            for i, c in enumerate(pivot_cols):
                rows[i][c] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield pivot_cols, tuple(tuple(r) for r in rows)


def jordan_matrix(lam: Partition, p: int) -> FqMatrix:
    """Block-diagonal nilpotent with ones on each block's superdiagonal."""
    d = sum(lam)
    rows = [[0] * d for _ in range(d)]
    start = 0
    for part in lam:
        for i in range(start, start + part - 1):
            rows[i][i + 1] = 1
        start += part
    return FqMatrix(p, tuple(tuple(r) for r in rows))


def count_flags(a: FqMatrix, dims, *, budget: Budget | None = None) -> int:
    """Flags 0 = V_0 <= ... <= V_n with dim(V_i/V_{i-1}) = dims[i-1] and
    a(V_i) inside V_{i-1} at every step, for a square matrix a.

    Each step charges the budget [m; k]_p for the k-subspaces of the
    quotient by V_i, one RREF basis each on V_i's non-pivot columns,
    then keeps those whose rows a sends into V_i.
    """
    bud = Budget() if budget is None else budget
    p = a.p
    d = a.nrows
    acols = [a.column(j) for j in range(d)]
    n = len(dims)

    def level(i: int, v: FqSubspace) -> int:
        if i == n - 1:
            # V_n is everything; a(V_n) <= V_{n-1} says the image sits in v
            return 0 if any(any(_reduce(v, col)) for col in acols) else 1
        rest = [j for j in range(d) if j not in v.pivots]
        bud.charge(_gauss(len(rest), dims[i], p))
        total = 0
        for _, rows in echelon_bases(rest, dims[i], p, d):
            if not any(any(_reduce(v, a.apply(row))) for row in rows):
                total += level(i + 1, FqSubspace(p, d, *_rref(v.rows + rows, p)))
        return total

    return level(0, FqSubspace(p, d, (), ()))


def right_pivots(rows, p: int) -> list[int]:
    """The columns, right to left, where the rank of the rows' projection
    to the coordinates c.. grows.

    Eliminates column by column from the right: the first live row with
    an entry there is its pivot and leaves, and the others are cleared
    in that column by cross-multiplication, so nothing is scaled and no
    pivot row is touched again.  Rows are cut to the columns still to
    come, and the sweep stops when no live row is left.
    """
    live = [list(r) for r in rows if any(r)]
    pivots = []
    c = len(rows[0]) if live else 0
    while live and c:
        c -= 1
        pivot = None
        rest = []
        for row in live:
            x = row.pop()
            if not x:
                rest.append(row)
            elif pivot is None:
                pivot, y = row, x
            else:
                row = [(y * s - x * t) % p for s, t in zip(row, pivot)]
                if any(row):
                    rest.append(row)
        if pivot is not None:
            pivots.append(c)
        live = rest
    return pivots


def right_pivots_by_rref(rows, p: int) -> list[int]:
    """The columns, right to left, where the rank of the rows' coordinates
    c.. grows: the RREF pivots of the reversed rows, mapped back."""
    if not rows:
        return []
    m = len(rows[0])
    return [m - 1 - j for j in _rref([row[::-1] for row in rows], p)[0]]


def right_pivot_cell_sizes(ell: int, k: int, p: int) -> dict[tuple[int, ...], int]:
    """The k-subspaces of F_p^ell counted by their right pivots J: the row
    with right pivot J[i] is free in the J[i] - i columns left of it and
    outside J, so each pivot set holds p^sum(J[i] - i) subspaces."""
    return {J: p ** sum(j - i for i, j in enumerate(J)) for J in combinations(range(ell), k)}


def _matmul(a, b, p: int):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt) for row in a
    )


def mul(a: FqMatrix, b: FqMatrix) -> FqMatrix:
    if a.p != b.p or a.ncols != b.nrows:
        raise ValueError("incompatible matrices")
    return FqMatrix(a.p, _matmul(a.rows, b.rows, a.p))


def rank(a: FqMatrix) -> int:
    return len(_rref(a.rows, a.p)[1])


def transpose(a: FqMatrix) -> FqMatrix:
    return FqMatrix(a.p, tuple(zip(*a.rows)) if a.rows else ())


def is_zero(a: FqMatrix) -> bool:
    return all(not any(row) for row in a.rows)


def full_space(n: int, p: int) -> FqSubspace:
    rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return FqSubspace(p, n, tuple(range(n)), rows)


def contains(v: FqSubspace, w: FqSubspace) -> bool:
    """Whether the subspace w lies inside v."""
    return all(v.contains_vector(row) for row in w.rows)


def _nilpotent_type(rows, p: int) -> Partition:
    """Jordan type from the rank sequence of powers; raises if not nilpotent."""
    k = len(rows)
    if k == 0:
        return ()
    ranks = [k]
    power = rows
    for _ in range(k):
        r = len(_rref(power, p)[1])
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
    return FqSubspace(a.p, n, *_rref(basis, a.p))


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


def enumerate_subspaces(ambient: FqSubspace, k: int):
    """Yield every k-dimensional subspace of `ambient` exactly once.

    Subspaces come out as canonical echelon bases inside the ambient's
    coordinates; the total count equals the Gaussian binomial at p.
    """
    if not 0 <= k <= ambient.dim:
        raise ValueError(f"k must lie in 0..{ambient.dim}, got {k}")
    m = ambient.dim
    whole = ambient.dim == ambient.ambient
    for spivots, srows in echelon_bases(range(m), k, ambient.p, m):
        if whole:
            yield FqSubspace(ambient.p, ambient.ambient, spivots, srows)
        else:
            rows = _combine(srows, ambient.rows, ambient.p)
            pivots = tuple(ambient.pivots[c] for c in spivots)
            yield FqSubspace(ambient.p, ambient.ambient, pivots, rows)


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
        for ii, t in enumerate(rest):
            x = w[t]
            for f, row in zip(fs, vrows):
                if f:
                    x -= f * row[t]
            out[ii][jj] = x % p
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


@cache
def _kostant(beta: tuple[int, ...]) -> LaurentPoly:
    """q-Kostant partition function of beta in the type A root lattice.

    The coefficient of q^k counts the ways to write beta as a sum of k
    positive roots e_i - e_j (i < j), with repetition.  Every root
    e_1 - e_j adds one to beta_1, so the roots from e_1 number beta_1;
    they are spread over j = 2.. and the rest is a problem one rank lower.
    """
    first, rest = beta[0], beta[1:]
    if not rest:
        return LaurentPoly({0: 1}) if first == 0 else LaurentPoly()
    total = LaurentPoly()
    if first >= 0:
        for spread in _compositions(first, len(rest)):
            total = total + _kostant(tuple(b + c for b, c in zip(rest, spread)))
    return total.shift(first)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
    return -1 if inversions % 2 else 1


def lusztig_kostka_foulkes(lam, mu) -> LaurentPoly:
    """K_{lam,mu}(q) as an alternating sum of q-Kostant partition functions."""
    n = max(len(lam), len(mu))

    def plus_rho(part):
        return [x + n - 1 - i for i, x in enumerate(tuple(part) + (0,) * (n - len(part)))]

    lam_rho, mu_rho = plus_rho(lam), plus_rho(mu)
    total = LaurentPoly()
    for perm in permutations(range(n)):
        beta = tuple(lam_rho[j] - m for j, m in zip(perm, mu_rho))
        total = total + _kostant(beta) * _sign(perm)
    return total


def ssyt_by_cells(shape: Partition, content) -> list[Tableau]:
    """Semistandard tableaux of a valid shape and content of equal size,
    in lexicographic order of their rows, top row first."""
    if not shape:
        return [()]
    nletters = len(content)
    remaining = list(content)
    rows = [[0] * width for width in shape]
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    found: list[Tableau] = []

    def fill(idx: int) -> None:
        if idx == len(cells):
            found.append(tuple(tuple(row) for row in rows))
            return
        r, c = cells[idx]
        lo = rows[r][c - 1] if c else 1
        if r and rows[r - 1][c] >= lo:
            lo = rows[r - 1][c] + 1
        for v in range(lo, nletters + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                rows[r][c] = v
                fill(idx + 1)
                remaining[v - 1] += 1
        rows[r][c] = 0

    fill(0)
    return found


@cache
def gauss_poly(m: int, k: int) -> LaurentPoly:
    """[m; k]_q by q-Pascal: [m; k] = [m-1; k-1] + q^k [m-1; k]."""
    if k > m:
        return LaurentPoly()
    if k == 0 or k == m:
        return LaurentPoly({0: 1})
    return gauss_poly(m - 1, k - 1) + gauss_poly(m - 1, k).shift(k)


@cache
def strip_tally_poly(lam: Partition, m: int) -> tuple[tuple[Partition, LaurentPoly], ...]:
    """Vertical m-strips lam/mu, each with its Hall polynomial G_{lam,mu}(q)
    (Macdonald, II (4.6)), as in nilflag.flaggeo._strip_tally."""
    cols = conjugate(lam)
    gaps = [c - nxt for c, nxt in zip(cols, cols[1:] + (0,))]
    base = n_stat(lam) - m * (m - 1) // 2
    out = []
    for inner, taken in _strips(cols, m):
        mu = conjugate(inner)
        g_poly = LaurentPoly({0: 1})
        shift = base - n_stat(mu)
        for g, b in zip(gaps, taken):
            g_poly = g_poly * gauss_poly(g, b)
            shift -= b * (g - b)
        out.append((mu, g_poly.shift(shift)))
    return tuple(out)


@cache
def fiber_poly_by_strips(lam: Partition, dims: tuple[int, ...]) -> LaurentPoly:
    """The count polynomial of flags of type lam with the nonzero jumps dims."""
    if len(dims) <= 1:
        return LaurentPoly({0: int(all(part == 1 for part in lam))})
    total = LaurentPoly()
    for mu, g_poly in strip_tally_poly(lam, dims[0]):
        total = total + g_poly * fiber_poly_by_strips(mu, dims[1:])
    return total


def dimvec_classes_by_grouping(n: int, d: int) -> list[tuple[Partition, list[DimVector]]]:
    """enumerate_dimvecs(n, d) grouped by nonzero composition, as (sorted
    weight, dvs in enumeration order) per class, in the order of each
    class's first dv."""
    classes: dict[DimVector, list[DimVector]] = {}
    for dv in enumerate_dimvecs(n, d):
        classes.setdefault(_nonzero(dv), []).append(dv)
    return [(sorted_weight(dims), dvs) for dims, dvs in classes.items()]


def expand_witnesses(n: int, witnesses: list[dict]) -> list[dict]:
    """Each class witness of a per-pair check as one witness per dv of
    its class: the dimvec's k nonzero entries placed at each k of the n
    positions, with the class size "dvs" dropped."""
    expanded = []
    for w in witnesses:
        dims = _nonzero(tuple(w["dimvec"]))
        for at in combinations(range(n), len(dims)):
            placed = dict(zip(at, dims))
            dv = [placed.get(i, 0) for i in range(n)]
            expanded.append({key: dv if key == "dimvec" else value
                             for key, value in w.items() if key != "dvs"})
    return expanded


def refines_by_packing(p: Partition, r: Partition) -> bool:
    """Whether the parts of p, p != r, fill bins of r's part sizes exactly."""
    if p == r:
        return False

    def pack(parts: tuple[int, ...], caps: list[int]) -> bool:
        if not parts:
            return all(c == 0 for c in caps)
        x = parts[0]
        tried = set()
        for i, c in enumerate(caps):
            if c >= x and c not in tried:
                tried.add(c)
                caps[i] -= x
                if pack(parts[1:], caps):
                    caps[i] += x
                    return True
                caps[i] += x
        return False

    return pack(p, list(r))


def dominates_by_padding(p: Partition, r: Partition) -> bool:
    """Whether every prefix sum of p, padded with zeros, is at least r's."""
    total_p = total_r = 0
    for i in range(max(len(p), len(r))):
        total_p += p[i] if i < len(p) else 0
        total_r += r[i] if i < len(r) else 0
        if total_p < total_r:
            return False
    return True


def partitions_by_recursion(n: int, d: int) -> list[Partition]:
    """Partitions of d with parts at most n, lex decreasing, by recursion
    on the first part."""
    out: list[Partition] = []

    def rec(remaining: int, biggest: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(biggest, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(d, n, [])
    return out


def dimvecs_by_recursion(n: int, d: int) -> list[DimVector]:
    """n-tuples of non-negative integers summing to d, lex decreasing, by
    recursion on the first entry."""
    out: list[DimVector] = []

    def rec(slots: int, remaining: int, prefix: list[int]) -> None:
        if slots == 1:
            out.append(tuple(prefix) + (remaining,))
            return
        for first in range(remaining, -1, -1):
            prefix.append(first)
            rec(slots - 1, remaining - first, prefix)
            prefix.pop()

    rec(n, d, [])
    return out
