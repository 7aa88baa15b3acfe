"""geometry: the integer orientation kernel against the Fraction monotone chain."""

import math
import random
from fractions import Fraction

import pytest

from mvergo.geometry import convex_hull, orientation
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
