"""bounds: certified sandwich bounds, sweeps, barycentre hulls."""

import math
from fractions import Fraction

import pytest

from mvergo.bounds import (
    ConstFunction,
    CosWave,
    NegDistance,
    SweepRow,
    barycentre_hull,
    beta_lower,
    beta_upper,
    make_family,
    orbit_table,
    outer_grid_system,
    theta_sweep,
)
from mvergo.circle import (
    doubling_map,
    is_sturmian,
    pq_correspondence,
    three_branch_doubling,
)
from mvergo.geometry import convex_hull, is_convex_polygon, orientation

F = Fraction


def test_orientation_and_hull_basics():
    assert orientation((0, 0), (1, 0), (0, 1)) == 1
    assert orientation((0, 0), (0, 1), (1, 0)) == -1
    assert orientation((0, 0), (1, 1), (2, 2)) == 0

    square = [(0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), F(1, 2)), (F(1, 2), 0)]
    hull = convex_hull(square)
    assert hull == [(0, 0), (1, 0), (1, 1), (0, 1)]  # collinear midpoint dropped
    assert is_convex_polygon(hull)


def test_hull_near_collinear_float_points_match_exact_orientation():
    # the middle point sits one ulp below, on and one ulp above the float
    # value of the chord; at (1/3, 0.1)-(2/3, 0.9) a float cross product
    # calls the upper point collinear, the exact one does not
    bases = [
        ((0.0, 0.0), (3.0, 1.0), 1.5),
        ((1 / 3, 0.1), (2 / 3, 0.9), 0.5),
        ((0.1, 0.2), (0.7, 1.3), 0.3),
    ]
    flags = []
    for a, c, x in bases:
        y0 = a[1] + (c[1] - a[1]) * (x - a[0]) / (c[0] - a[0])
        for y in (math.nextafter(y0, -math.inf), y0, math.nextafter(y0, math.inf)):
            (ax, ay), (bx, by), (cx, cy) = [(F(p[0]), F(p[1])) for p in (a, (x, y), c)]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            on_hull = (bx, by) in convex_hull([a, (x, y), c])
            assert on_hull == (cross != 0)
            flags.append(on_hull)
    assert flags == [True, False, True] + [True] * 6


def test_beta_lower_examples():
    tb = three_branch_doubling()
    d = doubling_map()
    f0 = CosWave(0)
    lo_t, orb_t = beta_lower(tb, f0, 6)
    lo_d, orb_d = beta_lower(d, f0, 6)
    assert lo_t == 1.0 and lo_d == 1.0
    assert orb_t.period == 1 and orb_d.period == 1


def test_beta_lower_theta_third_is_sturmian_semicircle():
    d = doubling_map()
    f = CosWave(F(1, 3))
    _, orbit = beta_lower(d, f, 12)
    assert is_sturmian(orbit, F(1, 2))


def test_beta_upper_constant():
    d = doubling_map()
    for grid in (64, 256):
        val = beta_upper(d, ConstFunction(F(5, 4)), grid)
        assert val == 1.25  # Lipschitz 0: no margin, exact cycle mean


def test_beta_upper_needs_lipschitz():
    d = doubling_map()

    class NoL:
        def values(self, xs):
            return xs

    with pytest.raises(ValueError):
        beta_upper(d, NoL(), 64)


def test_sandwich_gap_shrinks_with_grid():
    d = doubling_map()
    f = CosWave(F(1, 8))
    lo, _ = beta_lower(d, f, 10)
    gaps = []
    for grid in (64, 256, 1024):
        hi = beta_upper(d, f, grid)
        assert hi >= lo
        gaps.append(hi - lo)
    assert gaps[0] > gaps[1] > gaps[2]


def test_sandwich_pinches_at_zero_for_three_branch():
    # f at theta = 0: the fixed point 0 gives the exact value 1 from below
    # and growing grids squeeze the certified upper bound onto it
    tb = three_branch_doubling()
    f0 = CosWave(0)
    lo, _ = beta_lower(tb, f0, 6)
    assert lo == 1.0
    gaps = []
    for grid in (64, 256, 1024):
        hi = beta_upper(tb, f0, grid)
        assert hi >= 1.0
        gaps.append(hi - 1.0)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.03


def test_sandwich_gap_quarter_theta_regression():
    # doubling map, f at theta = 1/4, grid 2048 / period 14: gap below 0.01
    d = doubling_map()
    f = CosWave(F(1, 4))
    lo, _ = beta_lower(d, f, 14)
    hi = beta_upper(d, f, 2048)
    assert 0 <= hi - lo < 0.01


def test_sweep_row_validates():
    with pytest.raises(ValueError):
        SweepRow(F(0), 1.0, 0.5, 1)


def test_mini_sweep_monotone_and_equal_at_zero():
    # the three-branch system contains the doubling branches, so both bounds
    # are monotone under the branch containment
    systems = [doubling_map(), three_branch_doubling()]
    thetas = [F(k, 16) for k in range(9)]
    rows_d, rows_t = theta_sweep(systems, "cos", thetas, 8, 128)
    assert rows_d[0].beta_lower == rows_t[0].beta_lower == 1.0
    for rd, rt in zip(rows_d, rows_t):
        assert rt.beta_lower >= rd.beta_lower
        assert rt.beta_upper >= rd.beta_upper
        assert rd.beta_lower <= rd.beta_upper
        assert rt.beta_lower <= rt.beta_upper


def test_negdist_family_sweep():
    systems = [doubling_map(), three_branch_doubling()]
    thetas = [F(0), F(1, 8), F(1, 4)]
    rows_d, rows_t = theta_sweep(systems, "negdist", thetas, 8, 128)
    assert rows_d[0].beta_lower == 0.0  # fixed point 0 sits on theta = 0
    for rd, rt in zip(rows_d, rows_t):
        assert rt.beta_lower >= rd.beta_lower
        assert rd.beta_upper >= rd.beta_lower


def test_make_family_validation():
    assert isinstance(make_family("cos", F(1, 4)), CosWave)
    assert isinstance(make_family("negdist", F(1, 4), "circle"), NegDistance)
    with pytest.raises(ValueError):
        make_family("poly", F(0))


def test_orbit_table_reconstruction():
    for system in (three_branch_doubling(), pq_correspondence(2, 3)):
        table = orbit_table(system, 5)
        for idx in range(0, len(table.words), 7):
            orbit = table.orbit(idx)
            assert orbit.period == table.periods[idx]
            start = table.starts[idx]
            for offset, p in enumerate(orbit.points):
                assert float(p) == table.points[start + offset]


def test_hull_doubling_extremal_orbits_in_semicircle():
    points = barycentre_hull(pq_correspondence(1, 2), 8)
    extremal = [bp for bp in points if bp.on_hull]
    assert extremal
    for bp in extremal:
        assert is_sturmian(bp.orbit, F(1, 2))
        assert bp.sturmian


def test_hull_pq23_extremal_orbits_in_third_circle():
    points = barycentre_hull(pq_correspondence(2, 3), 8)
    extremal = [bp for bp in points if bp.on_hull]
    assert len(extremal) >= 8
    for bp in extremal:
        assert is_sturmian(bp.orbit, F(1, 3))
        assert bp.sturmian


def test_hull_polygon_is_strictly_convex():
    points = barycentre_hull(pq_correspondence(2, 3), 8)
    vertices = convex_hull([(bp.value.real, bp.value.imag) for bp in points])
    assert len(vertices) >= 8
    assert is_convex_polygon(vertices)


def test_hull_barycentre_modulus():
    points = barycentre_hull(pq_correspondence(2, 3), 6)
    for bp in points:
        assert abs(bp.value) <= 1 + 1e-12
        if bp.orbit.period == 1:
            assert abs(abs(bp.value) - 1) < 1e-12
        else:
            assert abs(bp.value) < 1


def test_grid_subaction_consistency():
    # exact rational weights on the outer grid: slack >= 0 everywhere and the
    # all-tight cycles sit on cells touching the maximizing orbit points
    from mvergo.subaction import subaction_for_state_function
    from mvergo.system import FiniteMVSystem, simple_cycles

    for system in (doubling_map(), three_branch_doubling()):
        g = 128
        model = outer_grid_system(system, g)
        fvals = tuple(F(float(v)) for v in CosWave(0).values(model.centers))
        res = subaction_for_state_function(model.system, fvals)
        assert min(res.slack) >= 0
        tight_sys = FiniteMVSystem.make(
            g, (model.system.edges[k] for k in res.tight_edge_ids)
        )
        cells = {x for cyc in simple_cycles(tight_sys) for x in cyc}
        assert cells
        for a in cells:
            lo, hi = F(a, g), F(a + 1, g)
            dist = min(abs(lo), abs(hi), abs(lo - 1), abs(hi - 1))
            if lo <= 0 <= hi or lo <= 1 <= hi:
                dist = F(0)
            assert dist <= F(2, g)


def test_outer_grid_covers_true_transitions():
    # every exact orbit transition is reflected by a grid edge
    import math

    for system in (doubling_map(), three_branch_doubling(), pq_correspondence(2, 3)):
        g = 64
        model = outer_grid_system(system, g)
        from mvergo.circle import enumerate_periodic_orbits

        for orbit in enumerate_periodic_orbits(system, 5):
            k = orbit.period
            for i in range(k):
                a = min(int(math.floor(orbit.points[i] * g)), g - 1)
                b = min(int(math.floor(orbit.points[(i + 1) % k] * g)), g - 1)
                assert model.system.has_edge(a, b)
