"""Test-side oracles that the package itself does not need.

interpolate recovers an integer polynomial from sampled values with
exact rational arithmetic.  The tests use it to rebuild count
polynomials from enumerated flag counts, independently of the
vertical-strip recursion in nilflag.flaggeo.
"""

from fractions import Fraction

from nilflag.qpoly import LaurentPoly


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
