"""Exact planar predicates and convex hulls over rational coordinates.

Coordinates may be ints, floats (exact binary rationals) or Fractions; any
other type is passed through ``Fraction`` first.  Each point is written as
one homogeneous integer triple (X, Y, W) with W > 0, so that it is
(X/W, Y/W), and every orientation decision is the sign of an integer
determinant: exact, with no rounding and no ``Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

_EXACT = (int, float, Fraction)


def _exact(v):
    """v itself when Python compares it exactly (int, float, Fraction);
    otherwise ``Fraction(v)``."""
    return v if isinstance(v, _EXACT) else Fraction(v)


def _homogeneous(x, y) -> tuple[int, int, int]:
    """(X, Y, W) with W > 0 and (X/W, Y/W) == (x, y).  Raises ValueError for
    a NaN and OverflowError for an infinite coordinate."""
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    return xn * yd, yn * xd, xd * yd


def _det(o, a, b) -> int:
    """The 3x3 determinant of three homogeneous triples.  It equals
    Wo*Wa*Wb times the cross product (a - o) x (b - o), so with positive W's
    it has the cross product's sign."""
    ox, oy, ow = o
    ax, ay, aw = a
    bx, by, bw = b
    return ox * (ay * bw - aw * by) - oy * (ax * bw - aw * bx) + ow * (ax * by - ay * bx)


def orientation(o, a, b) -> int:
    """Sign of the cross product (a - o) x (b - o): 1 for a left turn,
    -1 for a right turn, 0 for collinear.  Exact."""
    d = _det(*(_homogeneous(_exact(p[0]), _exact(p[1])) for p in (o, a, b)))
    return (d > 0) - (d < 0)


def convex_hull(points) -> list[tuple[Fraction, Fraction]]:
    """Vertices of the convex hull in counter-clockwise order, starting from
    the lexicographically smallest point.  Collinear boundary points are not
    vertices.  Monotone chain with exact orientation.

    The points are deduplicated and sorted on their coordinates as given
    (Python compares and hashes int, float and Fraction exactly), and only
    the returned vertices are converted to Fractions."""
    pts = sorted({(_exact(p[0]), _exact(p[1])) for p in points})
    homs = [_homogeneous(x, y) for x, y in pts]
    if len(pts) <= 2:
        return [(Fraction(x), Fraction(y)) for x, y in pts]
    lower: list[int] = []
    for i, h in enumerate(homs):
        while len(lower) >= 2 and _det(homs[lower[-2]], homs[lower[-1]], h) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in range(len(homs) - 1, -1, -1):
        h = homs[i]
        while len(upper) >= 2 and _det(homs[upper[-2]], homs[upper[-1]], h) <= 0:
            upper.pop()
        upper.append(i)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all points collinear
        hull = [0, len(pts) - 1]
    return [(Fraction(pts[i][0]), Fraction(pts[i][1])) for i in hull]

