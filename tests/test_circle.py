"""circle-lab: branch systems, certificates, exact periodic orbits."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvergo.circle import (
    Branch,
    NotExpandingError,
    PeriodicOrbit,
    PiecewiseAffineMVSystem,
    barycentre,
    doubling_map,
    enumerate_periodic_orbits,
    expansion_certificate,
    is_sturmian,
    necklaces,
    orbit_average,
    orbit_is_valid,
    pq_correspondence,
    three_branch_doubling,
    visit_periodic_orbits,
)
from oracles import fraction_periodic_orbits

F = Fraction


def mobius(n):
    result, p = 1, 2
    m = n
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_builtin_shapes():
    tb = three_branch_doubling()
    assert [b.slope for b in tb.branches] == [2, 2, 2]
    assert [(b.lo, b.hi) for b in tb.branches] == [
        (0, F(1, 2)), (F(1, 4), F(3, 4)), (F(1, 2), 1)
    ]
    assert tb.metric == "interval"

    d = doubling_map()
    assert len(d.branches) == 2 and not any(b.wraps for b in d.branches)

    pq = pq_correspondence(2, 3)
    assert [b.slope for b in pq.branches] == [F(3, 2), F(3, 2)]
    assert [b.offset for b in pq.branches] == [0, F(1, 2)]
    assert pq.metric == "circle" and all(b.wraps for b in pq.branches)

    with pytest.raises(ValueError):
        pq_correspondence(2, 2)
    with pytest.raises(ValueError):
        pq_correspondence(0, 3)


def test_branch_validation():
    with pytest.raises(ValueError):
        Branch(F(1, 2), F(0), F(0), F(1))  # not expanding
    with pytest.raises(ValueError):
        Branch(F(2), F(0), F(0), F(1))  # image leaves [0, 1] without wrapping
    Branch(F(2), F(0), F(0), F(1), wraps=True)


def test_three_branch_middle_branch_is_onto():
    tb = three_branch_doubling()
    mid = tb.branches[1]
    assert mid.apply(mid.lo) == 0 and mid.apply(mid.hi) == 1


def test_three_branch_fixed_points():
    tb = three_branch_doubling()
    fixed = enumerate_periodic_orbits(tb, 1)
    assert [(o.itinerary, o.points) for o in fixed] == [
        ((0,), (F(0),)), ((1,), (F(1, 2),)), ((2,), (F(1),))
    ]


def test_doubling_orbits_up_to_two():
    d = doubling_map()
    orbits = enumerate_periodic_orbits(d, 2)
    assert [o.points for o in orbits] == [
        (F(0),), (F(1),), (F(1, 3), F(2, 3))
    ]


def test_doubling_orbit_counts_necklace_formula():
    d = doubling_map()
    orbits = enumerate_periodic_orbits(d, 10)
    by_period = {}
    for o in orbits:
        by_period[o.period] = by_period.get(o.period, 0) + 1
    for k in range(2, 11):
        lyndon = sum(mobius(dd) * 2 ** (k // dd) for dd in divisors(k)) // k
        assert by_period[k] == lyndon
    assert by_period[1] == 2  # both interval endpoints are fixed


def test_every_doubling_orbit_is_a_three_branch_orbit():
    d_points = {o.points for o in enumerate_periodic_orbits(doubling_map(), 7)}
    t_points = {o.points for o in enumerate_periodic_orbits(three_branch_doubling(), 7)}
    assert d_points <= t_points


def test_pq12_matches_doubling_minus_endpoint():
    # the circle presentation identifies 1 with 0; everything else agrees,
    # which cross-checks words solved with integer lifts (wrapping branches)
    # against the same words solved without them
    d_orbits = {o.points for o in enumerate_periodic_orbits(doubling_map(), 8)}
    c_orbits = {o.points for o in enumerate_periodic_orbits(pq_correspondence(1, 2), 8)}
    assert d_orbits - c_orbits == {(F(1),)}


MIXED = PiecewiseAffineMVSystem(
    branches=(  # slopes 5/2, -3 and 7/3; only the last branch wraps
        Branch(F(5, 2), F(0), F(0), F(2, 5)),
        Branch(F(-3), F(7, 4), F(1, 4), F(7, 12)),
        Branch(F(7, 3), F(1, 5), F(1, 2), F(1), wraps=True),
    ),
    name="mixed",
)
NEGATIVE_WRAP = PiecewiseAffineMVSystem(
    branches=(  # a wrapping branch of negative rational slope between two others
        Branch(F(-2), F(1), F(0), F(1, 2)),
        Branch(F(-5, 2), F(3, 2), F(1, 5), F(3, 5), wraps=True),
        Branch(F(3), F(-2), F(2, 3), F(1)),
    ),
    name="negwrap",
)


@pytest.mark.parametrize("system, max_period", [
    (doubling_map(), 10),
    (three_branch_doubling(), 10),
    (three_branch_doubling(), 12),
    (pq_correspondence(2, 3), 8),
    (pq_correspondence(2, 3), 10),
    (pq_correspondence(3, 4), 6),
    (pq_correspondence(1, 2), 8),
    (MIXED, 8),
    (NEGATIVE_WRAP, 7),
], ids=lambda v: v.name if isinstance(v, PiecewiseAffineMVSystem) else str(v))
def test_visit_periodic_orbits_matches_fraction_oracle(system, max_period):
    # the whole consume sequence, order included, against the rational lift search
    got, expected = [], []
    visit_periodic_orbits(system, max_period, lambda *call: got.append(call))
    fraction_periodic_orbits(system, max_period, lambda *call: expected.append(call))
    assert got
    assert got == expected


def test_pq23_orbit_counts():
    pq = pq_correspondence(2, 3)
    orbits = enumerate_periodic_orbits(pq, 10)
    by_period = {}
    for o in orbits:
        by_period[o.period] = by_period.get(o.period, 0) + 1
    for k in range(1, 11):
        expected = sum(
            mobius(dd) * (3 ** (k // dd) - 2 ** (k // dd)) for dd in divisors(k)
        ) // k
        assert by_period.get(k, 0) == expected
    assert len(orbits) == 9156  # frozen regression value


def test_enumerated_orbits_revalidate():
    for system, period in (
        (three_branch_doubling(), 6),
        (doubling_map(), 8),
        (pq_correspondence(2, 3), 7),
        (pq_correspondence(3, 4), 5),
    ):
        orbits = enumerate_periodic_orbits(system, period)
        assert orbits
        assert all(orbit_is_valid(system, o) for o in orbits)


def test_orbit_canonical_rotation_and_guard():
    d = doubling_map()
    for o in enumerate_periodic_orbits(d, 6):
        k = o.period
        rotations = [
            (o.points[r:] + o.points[:r], o.itinerary[r:] + o.itinerary[:r])
            for r in range(k)
        ]
        assert min(rotations) == (o.points, o.itinerary)
    with pytest.raises(ValueError):
        enumerate_periodic_orbits(d, 25)


def test_wrapping_points_live_in_unit_interval():
    pq = pq_correspondence(2, 3)
    for o in enumerate_periodic_orbits(pq, 6):
        assert all(0 <= p < 1 for p in o.points)


def test_expansion_certificates_frozen_values():
    assert expansion_certificate(three_branch_doubling()) == (2, F(1, 12))
    assert expansion_certificate(doubling_map()) == (2, F(1, 6))
    assert expansion_certificate(pq_correspondence(2, 3)) == (F(3, 2), F(1, 9))
    assert expansion_certificate(pq_correspondence(1, 2)) == (2, F(1, 4))


def test_expansion_certificate_rejects_duplicate_branch():
    dup = PiecewiseAffineMVSystem(
        branches=(
            Branch(F(2), F(0), F(0), F(1, 2)),
            Branch(F(2), F(0), F(0), F(1, 2)),
            Branch(F(2), F(-1), F(1, 2), F(1)),
        ),
        metric="interval",
    )
    with pytest.raises(NotExpandingError):
        expansion_certificate(dup)


def test_expansion_certificate_rejects_transversal_crossing():
    crossing = PiecewiseAffineMVSystem(
        branches=(
            Branch(F(2), F(0), F(0), F(1, 2)),
            Branch(F(-2), F(2), F(1, 2), F(1)),  # both map 1/2 to 1
        ),
        metric="interval",
    )
    with pytest.raises(NotExpandingError):
        expansion_certificate(crossing)


def _definition_holds(system, lam, eta, samples=400, seed=5):
    """Numeric sampling check of the uniform-expansion inequality."""
    rng = random.Random(seed)
    branches = system.branches
    circle = system.metric == "circle"

    def dist(a, b):
        d = abs(a - b)
        if circle:
            d = d % 1
            d = min(d, 1 - d)
        return d

    for _ in range(samples):
        x = F(rng.randint(0, 480), 480)
        offset = F(rng.randint(-480, 480), 480 * 8)
        y = x + offset * eta * 8 / 8
        if not (0 <= y <= 1):
            continue
        if dist(x, y) > eta:
            continue
        images_x = [b.apply(x) for b in branches if b.contains(x)]
        images_y = [b.apply(y) for b in branches if b.contains(y)]
        if not images_x or not images_y:
            continue
        closest = min(dist(ix, iy) for ix in images_x for iy in images_y)
        if closest < lam * dist(x, y):
            return False
    return True


def test_certificates_satisfy_definition_numerically():
    for system in (three_branch_doubling(), doubling_map(), pq_correspondence(2, 3)):
        lam, eta = expansion_certificate(system)
        assert _definition_holds(system, lam, eta)


def test_orbit_average_examples():
    from mvergo.bounds import CosWave, ConstFunction

    f0 = CosWave(0)
    fixed = PeriodicOrbit((0,), (F(0),))
    assert orbit_average(fixed, f0) == 1.0

    third = PeriodicOrbit((0, 1), (F(1, 3), F(2, 3)))
    assert abs(orbit_average(third, f0) - (-0.5)) < 1e-12

    assert orbit_average(third, ConstFunction(F(7, 2))) == 3.5


def test_barycentre_examples():
    fixed = PeriodicOrbit((0,), (F(1, 8),))
    z = barycentre(fixed)
    assert abs(abs(z) - 1) < 1e-12

    third = PeriodicOrbit((0, 1), (F(1, 3), F(2, 3)))
    assert abs(barycentre(third) - (-0.5)) < 1e-12

    quarters = PeriodicOrbit((0, 0, 0, 0), (F(0), F(1, 4), F(1, 2), F(3, 4)))
    assert abs(barycentre(quarters)) < 1e-12


def test_is_sturmian_examples():
    fixed = PeriodicOrbit((0,), (F(1, 5),))
    assert is_sturmian(fixed, F(1, 100))

    antipodal = [F(0), F(1, 2)]
    assert not is_sturmian(antipodal, F(1, 4))
    assert is_sturmian(antipodal, F(1, 2))

    assert is_sturmian([F(0), F(1, 5), F(2, 5)], F(2, 5))
    assert not is_sturmian([F(0), F(1, 5), F(2, 5), F(3, 5)], F(2, 5))


@given(
    st.lists(st.fractions(min_value=0, max_value=F(99, 100)), min_size=1, max_size=8),
    st.fractions(min_value=F(1, 20), max_value=1),
)
@settings(max_examples=200, deadline=None)
def test_is_sturmian_matches_arc_search(points, arc):
    # brute force: some point starts a closed arc of the given length
    # containing everything iff the gap criterion holds
    pts = sorted({p - math.floor(p) for p in points})
    brute = any(
        all((q - p) % 1 <= arc for q in pts) for p in pts
    )
    assert is_sturmian(pts, arc) == brute


def test_necklaces_fkm_against_brute_force():
    for length in range(1, 7):
        for alphabet in (1, 2, 3):
            words = set(necklaces(length, alphabet))
            brute = set()
            for code in range(alphabet ** length):
                word = []
                c = code
                for _ in range(length):
                    word.append(c % alphabet)
                    c //= alphabet
                word = tuple(word)
                brute.add(min(word[r:] + word[:r] for r in range(length)))
            assert words == brute
