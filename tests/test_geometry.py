"""geometry: the integer orientation kernel against the Fraction monotone chain,
and the float interior filter against the Fraction hull."""

import math
import random
from fractions import Fraction

import pytest

from mvergo.geometry import convex_hull, hull_candidates, orientation
from oracles import fraction_convex_hull, fraction_orientation, is_convex_polygon

F = Fraction


def _check_hull(points):
    hull = convex_hull(points)
    assert hull == fraction_convex_hull(points)
    assert all(type(c) is Fraction for v in hull for c in v)
    if len(hull) >= 3:
        assert is_convex_polygon(hull)
    return hull


def test_hull_matches_oracle_on_random_floats():
    rng = random.Random(11)
    for size in (0, 1, 2, 3, 4, 7, 20, 60, 200):
        for _ in range(20):
            _check_hull([(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(size)])


def test_hull_matches_oracle_on_subnormals_zeros_and_units():
    tiny = math.ulp(0.0)
    values = [0.0, -0.0, 1.0, -1.0, tiny, -tiny, 3 * tiny, 2.2250738585072014e-308,
              math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0)]
    rng = random.Random(12)
    for size in (3, 5, 10, 30):
        for _ in range(40):
            _check_hull([(rng.choice(values), rng.choice(values)) for _ in range(size)])
    # a subnormal off a unit chord decides whether the corner survives
    assert _check_hull([(0.0, 0.0), (1.0, tiny), (2.0, 0.0)]) == [(0, 0), (2, 0), (1, F(tiny))]
    assert _check_hull([(0.0, 0.0), (1.0, -tiny), (2.0, 0.0)]) == [(0, 0), (1, F(-tiny)), (2, 0)]


def test_hull_matches_oracle_on_one_ulp_near_collinear_triples():
    rng = random.Random(13)
    for _ in range(300):
        a = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        c = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        if a[0] == c[0]:
            continue
        x = rng.uniform(min(a[0], c[0]), max(a[0], c[0]))
        y0 = a[1] + (c[1] - a[1]) * (x - a[0]) / (c[0] - a[0])
        for y in (math.nextafter(y0, -math.inf), y0, math.nextafter(y0, math.inf)):
            b = (x, y)
            _check_hull([a, b, c])
            assert orientation(a, b, c) == fraction_orientation(
                *[(F(p[0]), F(p[1])) for p in (a, b, c)])


def test_hull_matches_oracle_with_duplicates_across_types():
    rng = random.Random(14)
    base = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(25)]
    for _ in range(30):
        points = []
        for x, y in rng.choices(base, k=60):
            # the same number as a float, or as the equal Fraction
            points.append((rng.choice((x, F(x))), rng.choice((y, F(y)))))
        _check_hull(points)
    assert _check_hull([(0.5, 1), (F(1, 2), 1.0), (0.5, True)]) == [(F(1, 2), F(1))]
    assert _check_hull([(-0.0, 0.0), (0, 0), (1, 1), (1.0, 1.0)]) == [(0, 0), (1, 1)]


def test_hull_matches_oracle_on_ints_fractions_and_mixed_types():
    rng = random.Random(15)
    for _ in range(60):
        ints = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(15)]
        _check_hull(ints)
        fracs = [(F(rng.randint(-30, 30), rng.randint(1, 12)),
                  F(rng.randint(-30, 30), rng.randint(1, 12))) for _ in range(15)]
        _check_hull(fracs)
        mixed = [(rng.choice((x, float(x))), y) for x, y in fracs] + ints
        _check_hull(mixed)
    # other types are read through Fraction: these three are collinear, their
    # float roundings are not
    assert _check_hull([("0", "0"), ("1/2", "1/3"), ("3/2", "1")]) == [(0, 0), (F(3, 2), 1)]
    assert _check_hull([("0", "0"), ("1/2", "0"), ("1", "0"), ("0", "1")]) == [
        (0, 0), (1, 0), (0, 1)]


def test_hull_matches_oracle_on_large_denominator_fractions():
    rng = random.Random(16)
    big = 10 ** 30
    points = [(F(rng.randint(-big, big), rng.randint(1, big)),
               F(rng.randint(-big, big), rng.randint(1, big))) for _ in range(1000)]
    _check_hull(points)


def test_collinear_and_tiny_inputs_match_oracle():
    line = [(F(i, 7), F(2 * i, 7)) for i in range(-5, 9)]
    assert _check_hull(line) == [(F(-5, 7), F(-10, 7)), (F(8, 7), F(16, 7))]
    assert _check_hull([]) == []
    assert _check_hull([(0.25, 0.75)]) == [(F(1, 4), F(3, 4))]
    assert _check_hull([(1, 0), (0, 1)]) == [(0, 1), (1, 0)]


@pytest.mark.parametrize("bad, error", [
    (math.nan, ValueError), (math.inf, OverflowError), (-math.inf, OverflowError),
], ids=["nan", "inf", "-inf"])
def test_non_finite_coordinates_raise(bad, error):
    with pytest.raises(error):
        convex_hull([(0.0, 0.0), (1.0, 0.0), (bad, 1.0)])
    with pytest.raises(error):
        convex_hull([(0.0, bad)])
    with pytest.raises(error):
        orientation((0.0, 0.0), (bad, 0.0), (0.0, 1.0))
    with pytest.raises(error):
        fraction_convex_hull([(0.0, bad)])


def _check_filter(points):
    """The candidates of hull_candidates over float points, checked: every
    dropped point is strictly inside the Fraction hull of all the points,
    and the exact hull of the candidates is the exact hull of all.  Every
    finite float is an integer over 2^1074, so the orientations against
    the hull's edges are taken in those integers."""
    keep = hull_candidates([p[0] for p in points], [p[1] for p in points]).tolist()
    assert keep == sorted(set(keep)) and all(0 <= i < len(points) for i in keep)
    hull = [(int(x * 2 ** 1074), int(y * 2 ** 1074)) for x, y in fraction_convex_hull(points)]
    edges = list(zip(hull, hull[1:] + hull[:1]))
    for i in set(range(len(points))) - set(keep):
        px, py = (int(F(c) * 2 ** 1074) for c in points[i])
        assert len(hull) >= 3 and all(
            (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0 for (ax, ay), (bx, by) in edges
        ), points[i]
    assert convex_hull([points[i] for i in keep]) == convex_hull(points)
    return keep


def test_filter_keeps_the_hull_of_random_clouds():
    rng = random.Random(21)
    sizes = (0, 1, 2, 3, 4, 7, 20, 60, 200, 1000)
    dropped = 0
    for size in sizes:
        for _ in range(2):
            square = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(size)]
            disk = []
            for _ in range(size):
                r, t = math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi)
                disk.append((r * math.cos(t), r * math.sin(t)))
            gauss = [(rng.gauss(0, 1e-3), rng.gauss(5, 1e3)) for _ in range(size)]
            for points in (square, disk, gauss):
                dropped += len(points) - len(_check_filter(points))
    assert dropped > 0.5 * 2 * 3 * sum(sizes)


def test_filter_keeps_the_hull_on_subnormals_zeros_and_units():
    tiny = math.ulp(0.0)
    values = [0.0, -0.0, 1.0, -1.0, tiny, -tiny, 3 * tiny, 2.2250738585072014e-308,
              math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0)]
    rng = random.Random(22)
    for size in (3, 5, 10, 30, 100):
        for _ in range(40):
            _check_filter([(rng.choice(values), rng.choice(values)) for _ in range(size)])
    # whole clouds of subnormals and of coordinates near the float maximum,
    # where products underflow and differences overflow
    for scale in (2.0 ** -1070, 2.0 ** -1040, 2.0 ** -1000, 1e307, 1.7e308):
        for _ in range(10):
            _check_filter([(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)
                           for _ in range(50)])
    assert _check_filter([(0.0, 0.0), (1.0, tiny), (2.0, 0.0)]) == [0, 1, 2]
    # p lies on the edge a -> b, yet its float orientation there is one
    # subnormal ulp: by - ay rounds 0.5 + 2^-54 down to 0.5 (a tie), then
    # the products round 2^-1075 + 2^-1128 up to 2^-1074 and the tie
    # 2^-1075 down to 0; the relative bound underflows to 0, and only the
    # absolute term keeps p
    m = (2 ** 53 + 1) // 3
    a, b, c, p = (0.0, -2.0 ** -54), (m * tiny, 0.5), (-2.0 ** -10, 2.0 ** -11), (tiny, 2.0 ** -53)
    assert _check_filter([a, b, c, p]) == [0, 1, 2, 3]


def test_filter_keeps_the_hull_around_one_ulp_near_collinear_triples():
    rng = random.Random(23)
    for _ in range(100):
        a = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        c = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        if a[0] == c[0]:
            continue
        d = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        x = rng.uniform(min(a[0], c[0]), max(a[0], c[0]))
        y0 = a[1] + (c[1] - a[1]) * (x - a[0]) / (c[0] - a[0])
        inner = []
        for _ in range(20):
            u, v = sorted((rng.random(), rng.random()))
            inner.append(tuple(u * p + (v - u) * q + (1 - v) * r for p, q, r in zip(a, c, d)))
        for y in (math.nextafter(y0, -math.inf), y0, math.nextafter(y0, math.inf)):
            _check_filter([a, (x, y), c, d] + inner)


def test_filter_keeps_the_hull_with_duplicates():
    rng = random.Random(24)
    base = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(25)]
    for _ in range(30):
        _check_filter(rng.choices(base, k=60))
    assert _check_filter([(0.5, 1.0)] * 5) == [0, 1, 2, 3, 4]
    assert _check_filter([(-0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (1.0, 1.0)]) == [0, 1, 2, 3]


def test_filter_drops_nothing_with_fewer_than_three_extremes_or_on_a_line():
    # two distinct points: fewer than 3 distinct extremes
    assert _check_filter([(0.0, 0.0), (1.0, 2.0)] * 4 + [(0.0, 0.0)]) == list(range(9))
    # every point on one line, so none is strictly inside
    for line in ([(float(i), 2.0 * i) for i in range(-5, 9)],
                 [(i / 8, -i / 4) for i in range(40)],
                 [(0.1 * i, 0.3 * i) for i in range(40)],
                 [(x, x) for x in (0.1 * i for i in range(40))]):
        assert _check_filter(line) == list(range(len(line)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_filter_keeps_non_finite_points_for_the_hull_to_reject(bad):
    rng = random.Random(25)
    disk = [(0.9 * math.cos(t), 0.9 * math.sin(t))
            for t in (rng.uniform(0, 2 * math.pi) for _ in range(100))]
    disk += [(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(100)]
    for where in (0, 57, 150):
        for point in ((bad, 0.0), (0.0, bad), (bad, bad)):
            points = disk[:where] + [point] + disk[where:]
            keep = hull_candidates([p[0] for p in points], [p[1] for p in points]).tolist()
            assert where in keep
            error = ValueError if math.isnan(bad) else OverflowError
            with pytest.raises(error):
                convex_hull([points[i] for i in keep])
            with pytest.raises(error):
                convex_hull(points)


def test_filter_keeps_points_within_one_ulp_of_an_edge():
    # the triangle (0, 0), (1, 1), (-1, 2) at scales 2^e is P itself (every
    # other point ties with or loses to a corner in every direction), and
    # its edge from the origin lies on y = x: a point (x, x) is on that
    # edge, and (x, next float above x) is one ulp inside it, exact to place
    # yet within the float error bound.  The points near (0, 1) are dropped
    # (at scales whose products neither overflow nor underflow)
    rng = random.Random(26)
    for e in (-400, -60, -1, 0, 1, 60, 400):
        s = 2.0 ** e
        corners = [(0.0, 0.0), (s, s), (-s, 2 * s)]
        deep = [(s * rng.uniform(-0.1, 0.1), s * rng.uniform(0.9, 1.1)) for _ in range(20)]
        near = []
        for _ in range(50):
            x = s * rng.uniform(0.01, 0.99)
            near += [(x, x), (x, math.nextafter(x, math.inf))]
        points = corners + deep + near
        keep = _check_filter(points)
        assert set(range(23, len(points))) <= set(keep)
        assert not set(range(3, 23)) & set(keep)
