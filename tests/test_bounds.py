"""bounds: certified sandwich bounds, sweeps, barycentre hulls."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
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
    Branch,
    PeriodicOrbit,
    PiecewiseAffineMVSystem,
    doubling_map,
    is_sturmian,
    pq_correspondence,
    three_branch_doubling,
)
from mvergo.geometry import convex_hull, is_convex_polygon, orientation
from mvergo.mea import HowardSolver
from oracles import fraction_outer_grid_system, per_orbit_orbit_table, visited_orbits

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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta", [1e308, 1.7976931348623157e308, -1.7976931348623157e308])
@pytest.mark.parametrize("system", [doubling_map(), three_branch_doubling()],
                         ids=["doubling", "threebranch"])
def test_beta_lower_sums_past_the_float_range(system, theta):
    # every x - theta rounds to -theta, so every orbit averages -|theta|
    # and the first row, the period-1 orbit, is the witness; the float sums
    # of the longer orbits overflow and are summed again at a scale
    table = orbit_table(system, 8)
    with np.errstate(over="ignore"):
        assert np.isinf(np.add.reduceat(NegDistance(theta).values(table.points),
                                        table.starts)).any()
    lo, orbit = beta_lower(system, NegDistance(theta), 8, table)
    assert lo == -abs(theta)
    assert orbit.period == 1


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
            assert math.gcd(orbit.denominator, *orbit.numerators) == 1
            start = table.starts[idx]
            for offset, p in enumerate(orbit.points):
                assert float(p) == table.points[start + offset]


def test_orbit_table_reconstruction_repeated_least_point():
    # three-branch rows whose least point repeats take the batched path's
    # per-row tie-break; each must rebuild to the visitor's exact orbit
    system = three_branch_doubling()
    calls = visited_orbits(system, 10)
    table = orbit_table(system, 10)
    tied = [i for i, (_, xs, _) in enumerate(calls) if xs.count(min(xs)) > 1]
    assert len(tied) == 46
    assert sum(len(calls[i][0]) == 10 for i in tied) == 28
    for idx in tied:
        word, xs, den = calls[idx]
        assert table.orbit(idx) == PeriodicOrbit(word, xs, den)


@pytest.mark.parametrize("system, period", [
    (doubling_map(), 10), (doubling_map(), 12),
    (three_branch_doubling(), 10), (three_branch_doubling(), 12),
    (pq_correspondence(2, 3), 7),
], ids=["doubling-10", "doubling-12", "threebranch-10", "threebranch-12", "pq23-7"])
def test_block_orbit_table_matches_per_orbit_oracle(system, period):
    # batched systems hand over whole int64 blocks, pq:2,3 gathered object
    # blocks; three-branch has rows whose least point repeats
    table = orbit_table(system, period)
    ref = per_orbit_orbit_table(system, period)
    assert table.letters == ref.letters
    assert table.points.dtype == ref.points.dtype
    assert table.points.tobytes() == ref.points.tobytes()
    assert np.array_equal(table.starts, ref.starts)
    assert np.array_equal(table.periods, ref.periods)
    assert table.starts.dtype == table.periods.dtype == np.int64
    for idx in range(0, len(table.periods), max(1, len(table.periods) // 300)):
        orbit = table.orbit(idx)
        start, k = int(table.starts[idx]), int(table.periods[idx])
        assert orbit.itinerary == tuple(table.letters[start:start + k])
        assert tuple(float(x) for x in orbit.points) == tuple(table.points[start:start + k])


def test_block_orbit_table_divides_large_denominators_as_python_ints():
    # slope 7 takes the batched path at period 19, where the denominator
    # 7^19 - 1 exceeds 2^53; near 1, the numerators are no floats either,
    # so those blocks must divide as Python ints
    system = PiecewiseAffineMVSystem(branches=(
        Branch(F(7), F(-5), F(5, 7), F(6, 7)),
        Branch(F(7), F(-6), F(6, 7), F(1)),
    ))
    table = orbit_table(system, 19)
    ref = per_orbit_orbit_table(system, 19)
    assert table.letters == ref.letters
    assert table.points.tobytes() == ref.points.tobytes()
    assert np.array_equal(table.periods, ref.periods)
    # a float division of the int64 arrays would be off in some last bits
    big = [(row, d) for _, row, d in visited_orbits(system, 19) if d >= 2 ** 53]
    assert big
    exact = [x / d for row, d in big for x in row]
    assert [float(x) / float(d) for row, d in big for x in row] != exact


def test_howard_first_argmax_keeps_the_first_tied_edge():
    # weights taken at the tail's cell centre tie on all of a state's
    # out-edges, so a cold start takes each state's first out-edge; doubling
    # cell 3 of 16 links to cells 5..8, closed cells included
    model = outer_grid_system(doubling_map(), 16)
    solver = model.howard
    heads = [h for t, h in model.system.edges if t == 3]
    assert heads == [5, 6, 7, 8]
    weights = make_family("cos", F(1, 8)).values(model.centers)[model.tails]
    policy, _ = solver._first_argmax(weights)
    first = [model.system.out_edge_ids[x][0] for x in range(16)]
    assert policy.tolist() == first
    # the edges 3 -> 6 and 3 -> 8 tie above the others: 3 -> 6 wins
    values = np.zeros(len(model.system.edges))
    ids = model.system.out_edge_ids[3]
    values[list(ids)] = [0.0, 2.0, 1.0, 2.0]
    choice, best = solver._first_argmax(values)
    assert choice[3] == ids[1] and best[3] == 2.0
    # against a per-state scan, on values with many ties
    rng = random.Random(11)
    for system in (doubling_map(), three_branch_doubling(), pq_correspondence(2, 3)):
        model = outer_grid_system(system, 64)
        solver = model.howard
        out = model.system.out_edge_ids
        for _ in range(20):
            values = np.array([rng.choice((-np.inf, 0.0, 0.5, 1.0)) for _ in model.system.edges])
            choice, best = solver._first_argmax(values)
            for x in range(64):
                top = max(values[e] for e in out[x])
                assert best[x] == top
                assert choice[x] == next(e for e in out[x] if values[e] == top)


@pytest.mark.parametrize("grid", [256, 1024])
def test_warm_started_howard_matches_cold_starts(grid):
    # a grid's solver starts each solve from the previous one's final policy;
    # every beta_upper must equal a cold start's bit for bit (observed, not
    # proved: another optimal policy could move the bound in its last ulps)
    thetas = [F(k, 16) for k in range(9)]
    warm_total = cold_total = 0
    for system in (doubling_map(), three_branch_doubling(), pq_correspondence(2, 3)):
        for family in ("cos", "negdist"):
            model = outer_grid_system(system, grid)
            warm_rows = []
            for theta in thetas:
                f = make_family(family, theta, system.metric)
                warm = beta_upper(system, f, grid, model)
                warm_total += model.howard.iterations
                cold_model = dataclasses.replace(model, howard=HowardSolver(model.system))
                cold = beta_upper(system, f, grid, cold_model)
                cold_total += cold_model.howard.iterations
                assert warm.hex() == cold.hex(), (system.name, family, theta)
                warm_rows.append(warm)
            rows = theta_sweep([system], family, thetas, 3, grid)[0]
            assert [row.beta_upper for row in rows] == warm_rows
    assert warm_total < cold_total


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


def _random_branch(rng):
    """A valid branch of rational slope of either sign, wrapping or not."""
    while True:
        slope = F(rng.randint(11, 70), rng.randint(1, 10)) * rng.choice((1, -1))
        if abs(slope) <= 1:
            continue
        den = rng.randint(1, 13)
        lo, hi = sorted(F(rng.randint(0, den), den) for _ in range(2))
        if rng.random() < 0.4:
            return Branch(slope, F(rng.randint(-40, 40), rng.randint(1, 11)), lo, hi, wraps=True)
        low, high = sorted((slope * lo, slope * hi))
        if high - low <= 1:
            offset = -low + (1 - high + low) * F(rng.randint(0, 7), 7)
            return Branch(slope, offset, lo, hi)


def _assert_grid_matches_oracle(system, g):
    model = outer_grid_system(system, g)
    oracle = fraction_outer_grid_system(system, g)
    assert model.system.edges == oracle.system.edges
    assert model.grid_n == oracle.grid_n == g
    assert np.array_equal(model.centers, oracle.centers)
    assert np.array_equal(model.tails, oracle.tails)


@pytest.mark.parametrize("g", [8, 9, 64, 100, 1024, 2048])
def test_integer_grid_matches_fraction_oracle_on_builtins(g):
    for system in (doubling_map(), three_branch_doubling(), pq_correspondence(2, 3),
                   pq_correspondence(1, 2), pq_correspondence(3, 4), pq_correspondence(3, 7)):
        _assert_grid_matches_oracle(system, g)


def test_integer_grid_matches_fraction_oracle_on_random_systems():
    rng = random.Random(4242)
    negative = wrapping = 0
    for trial in range(40):
        branches = tuple(_random_branch(rng) for _ in range(rng.randint(1, 4)))
        negative += sum(br.slope < 0 for br in branches)
        wrapping += sum(br.wraps for br in branches)
        system = PiecewiseAffineMVSystem(branches, metric=rng.choice(("interval", "circle")))
        for g in (8, rng.randint(9, 300)) + ((2048,) if trial % 8 == 0 else ()):
            _assert_grid_matches_oracle(system, g)
    assert negative > 15 and wrapping > 15


def test_integer_grid_pins_closed_cell_edges():
    # doubling at g = 8: cell 3 = [3/8, 1/2] maps onto [3/4, 1] and also
    # meets the branch 2x - 1 at its point 1/2, whose image 0 touches cell 0
    model = outer_grid_system(doubling_map(), 8)
    assert model.system.successors[3] == (0, 5, 6, 7)
    # a wrapping image ending exactly at 1 also meets cell 0
    whole = PiecewiseAffineMVSystem((Branch(F(2), F(0), F(0), F(1), wraps=True),), "circle")
    assert outer_grid_system(whole, 8).system.successors[3] == (0, 5, 6, 7)
    with pytest.raises(ValueError):
        outer_grid_system(doubling_map(), 7)
