"""Exact planar predicates and convex hulls over rational coordinates.

Coordinates may be ints, floats (exact binary rationals) or Fractions; any
other type is passed through ``Fraction`` first.  Each point is written as
one homogeneous integer triple (X, Y, W) with W > 0, so that it is
(X/W, Y/W), and every orientation decision is the sign of an integer
determinant: exact, with no rounding and no ``Fraction`` arithmetic.

``hull_candidates`` is a float pre-filter for large clouds of float points:
it drops only points that a certified floating-point test places strictly
inside the hull, so ``convex_hull`` of the rest is ``convex_hull`` of all.
"""

from __future__ import annotations

import math
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


# hull_candidates: the extreme points in these many fixed directions span P
_DIRECTIONS = 16
# Shewchuk's orient2d error bound A, (3 + 16 eps) eps with eps = 2^-53, and
# an absolute term for products that underflow (see hull_candidates)
_ORIENT_ERR = (3 + 16 * 2.0 ** -53) * 2.0 ** -53
_ORIENT_TINY = 2.0 ** -1073


def hull_candidates(x, y):
    """Ascending indices of the float points (x[i], y[i]) that a certified
    float test cannot place strictly inside their convex hull.  Every point
    left out is interior, so ``convex_hull`` of the candidates equals
    ``convex_hull`` of all the points (the Akl-Toussaint interior filter).

    P is the polygon of the points extreme in 16 fixed directions t (the
    first argmax of x cos t + y sin t), in direction order, consecutive
    repeats dropped (cyclically).  With fewer than 3 distinct extremes
    nothing is dropped.  A point p is dropped only when, for every edge
    (a, b) of P, the float orientation s = fl(l - r), l = fl((bx - ax) (py -
    ay)), r = fl((by - ay) (px - ax)), exceeds the computed bound
    B = fl(fl(c fl(|l| + |r|)) + t), c = (3 + 16 eps) eps, eps = 2^-53,
    t = 2^-1073.

    The bound.  With round-to-nearest and gradual underflow, each operation
    errs by at most eps times its result, except that a product below
    2^-1022 errs by at most u = 2^-1075 instead (sums and differences that
    underflow are exact).  So each exact product L = (bx - ax)(py - ay) is
    l(1 + e1)(1 + e2)(1 + e3) up to (1 + eps)^2 u, |ei| <= eps, and the
    exact orientation L - R is within (3 eps + 3 eps^2 + eps^3)(|l| + |r|)
    + 2(1 + eps)^2 u of l - r.  From s > B: l - r >= s(1 - eps) > B(1 - eps)
    >= c(1 - eps)^2/(1 + eps)^2 (|l| + |r|) + (t - u)(1 - eps)/(1 + eps),
    whose first term is at least (3 eps + 4 eps^2 - 64 eps^3)(|l| + |r|)
    and whose second, with t - u = 3u, exceeds 2(1 + eps)^2 u.  So L - R > 0:
    the absolute term t covers underflow, c the rounding (Shewchuk, Discrete
    Comput. Geom. 18, 1997, with his bound computed in the same order).  A
    NaN anywhere makes s > B false.  An infinity in l or r (an infinite
    input, or a difference or product that overflows) makes |l| + |r|, so
    B, infinite, and if l - r overflows so does |l| + |r|: s > B is false
    again.  So a point with a NaN or infinite coordinate is never dropped,
    and ``convex_hull`` still raises on it.

    The winding.  Every exact orientation being positive, p is strictly left
    of the line of every edge of P, so each edge turns the direction from p
    anticlockwise by an angle in (0, pi), and around the closed polygon
    these turns add up to a positive multiple of 2 pi: P winds around p at
    least once.  If p were a vertex of the hull of the input points, or on
    its boundary, one line through p would have every input point, so every
    vertex of P, on one closed side.  The directions from p to the vertices
    would then have arguments in one closed half-turn [phi, phi + pi], each
    turn would equal the increase of that argument, and these increases,
    all positive, would sum to 0 around the closed polygon.  So p is an
    interior point: neither a hull vertex nor on a hull edge.  The argument
    needs neither convexity nor a correct order of P, so a float argmax
    that picks a wrong extreme costs candidates, never correctness."""
    import numpy as np

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) < 3:
        return np.arange(len(x))
    # overflow and NaN only ever keep a point, so numpy need not warn of them
    with np.errstate(over="ignore", invalid="ignore"):
        extremes: list[int] = []
        for k in range(_DIRECTIONS):
            angle = 2 * math.pi * k / _DIRECTIONS
            i = int(np.argmax(x * math.cos(angle) + y * math.sin(angle)))
            if not extremes or extremes[-1] != i:
                extremes.append(i)
        while len(extremes) > 1 and extremes[-1] == extremes[0]:
            extremes.pop()
        if len(set(extremes)) < 3:
            return np.arange(len(x))
        corners = [(float(x[i]), float(y[i])) for i in extremes]
        inside = np.ones(len(x), dtype=bool)
        for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
            left = (bx - ax) * (y - ay)
            right = (by - ay) * (x - ax)
            inside &= left - right > _ORIENT_ERR * (np.abs(left) + np.abs(right)) + _ORIENT_TINY
    return np.flatnonzero(~inside)
