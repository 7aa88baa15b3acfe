"""circle-lab: branch systems, certificates, exact periodic orbits."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvergo.circle as circle
from mvergo._numbers import InputTooLargeError
from mvergo.circle import (
    Branch,
    NotExpandingError,
    PeriodicOrbit,
    PiecewiseAffineMVSystem,
    TooManyOrbitsError,
    barycentre,
    doubling_map,
    enumerate_periodic_orbits,
    expansion_certificate,
    for_each_necklace,
    is_sturmian,
    pq_correspondence,
    three_branch_doubling,
    visit_periodic_orbits,
)
from mvergo.circle import (
    _batch_slope,
    _integer_branches,
    _lattice_counts,
    _lattice_slope,
    _visit_batched,
    _visit_lattice,
    _visit_words,
    _word_orbits,
)
from oracles import (
    flatten_blocks,
    fraction_barycentre,
    fraction_is_sturmian,
    fraction_periodic_orbits,
    fraction_points,
    fraction_sorted_orbits,
    orbit_is_valid,
    orbit_over_lcm,
    visited_orbits,
)

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
    assert [(o.itinerary, fraction_points(o)) for o in fixed] == [
        ((0,), (F(0),)), ((1,), (F(1, 2),)), ((2,), (F(1),))
    ]


def test_doubling_orbits_up_to_two():
    d = doubling_map()
    orbits = enumerate_periodic_orbits(d, 2)
    assert [fraction_points(o) for o in orbits] == [
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
    d_points = {fraction_points(o) for o in enumerate_periodic_orbits(doubling_map(), 7)}
    t_points = {fraction_points(o) for o in enumerate_periodic_orbits(three_branch_doubling(), 7)}
    assert d_points <= t_points


def test_pq12_matches_doubling_minus_endpoint():
    # the circle presentation identifies 1 with 0; everything else agrees,
    # which cross-checks words solved with integer lifts (wrapping branches)
    # against the same words solved without them
    d_orbits = {fraction_points(o) for o in enumerate_periodic_orbits(doubling_map(), 8)}
    c_orbits = {fraction_points(o) for o in enumerate_periodic_orbits(pq_correspondence(1, 2), 8)}
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
    # every row of every block, order included, against the rational lift search
    got, expected = visited_orbits(system, max_period), []
    fraction_periodic_orbits(system, max_period, lambda *call: expected.append(call))
    assert got
    assert got == expected


def _per_word_blocks(system, max_period):
    """The blocks of the per-word integer path at every period."""
    unit, rows = _integer_branches(system)
    blocks = []
    for k in range(1, max_period + 1):
        _visit_words(k, rows, unit, lambda *block: blocks.append(block))
    return blocks


def _per_word_calls(system, max_period):
    """The rows of the per-word integer path at every period."""
    return flatten_blocks(_per_word_blocks(system, max_period))


# A and B share the offset 0 on [1/3, 1/2]: the same point sequence follows
# several words, so the per-period dedup has work to do
SHARED_IMAGE = PiecewiseAffineMVSystem(
    branches=(
        Branch(F(2), F(0), F(0), F(1, 2)),
        Branch(F(2), F(0), F(1, 3), F(1, 2)),
        Branch(F(2), F(-1), F(1, 2), F(1)),
    ),
    name="shared",
)


def test_batch_eligibility():
    assert _batch_slope(doubling_map()) == 2
    assert _batch_slope(three_branch_doubling()) == 2
    for system in (pq_correspondence(2, 3), pq_correspondence(1, 2), MIXED, NEGATIVE_WRAP,
                   SHARED_IMAGE):
        assert _batch_slope(system) is None
    touching = PiecewiseAffineMVSystem(branches=(  # equal offsets, domains meet at 1/4
        Branch(F(2), F(0), F(0), F(1, 4)),
        Branch(F(2), F(0), F(1, 4), F(1, 2)),
    ))
    assert _batch_slope(touching) is None
    apart = PiecewiseAffineMVSystem(branches=(  # equal offsets, disjoint domains
        Branch(F(3), F(0), F(0), F(1, 4)),
        Branch(F(3), F(0), F(1, 4) + F(1, 100), F(1, 3)),
    ))
    assert _batch_slope(apart) == 3
    rational = PiecewiseAffineMVSystem(branches=(Branch(F(5, 2), F(0), F(0), F(2, 5)),))
    assert _batch_slope(rational) is None


def test_shared_image_system_keeps_per_word_dedup():
    calls = visited_orbits(SHARED_IMAGE, 6)
    assert len(calls) == 23
    assert calls.count(((0, 2), (1, 2), 3)) == 1
    # the batched path, which skips the dedup and the primitivity test,
    # would emit 48 calls: 44 primitive point sequences, 23 of them distinct
    unit, rows = _integer_branches(SHARED_IMAGE)
    blocks = []
    for k in range(1, 7):
        assert _visit_batched(k, 2, rows, unit, lambda *block: blocks.append(block))
    batched = flatten_blocks(blocks)
    primitive = [(xs, d) for _, xs, d in batched
                 if all(xs[p:] + xs[:p] != xs for p in range(1, len(xs)))]
    assert (len(batched), len(primitive), len(set(primitive))) == (48, 44, 23)
    expected = []
    fraction_periodic_orbits(SHARED_IMAGE, 6, lambda *call: expected.append(call))
    assert calls == expected


def _check_blocks(blocks, cap):
    """The visitor's block contract: (rows, k) words and numerators, (rows,)
    denominators, no empty block, periods never decreasing, at most ``cap``
    rows per block."""
    periods = []
    for words, numerators, dens in blocks:
        rows, k = words.shape
        assert 1 <= rows <= cap
        assert numerators.shape == (rows, k) and dens.shape == (rows,)
        assert numerators.dtype == dens.dtype and numerators.dtype in (np.int64, object)
        periods.append(k)
    assert periods == sorted(periods)


@pytest.mark.parametrize("system, max_period", [
    (doubling_map(), 10),
    (three_branch_doubling(), 9),
    # pq:2,3 takes the lattice path, pq:2,4 the per-word path
    pytest.param(pq_correspondence(2, 3), 7, id="lattice-pq:2,3-7"),
    pytest.param(pq_correspondence(2, 4), 6, id="per-word-pq:2,4-6"),
    (MIXED, 6),
    (NEGATIVE_WRAP, 6),
    (SHARED_IMAGE, 6),
], ids=lambda v: v.name if isinstance(v, PiecewiseAffineMVSystem) else str(v))
def test_visit_periodic_orbits_block_contract(system, max_period, monkeypatch):
    blocks = []
    visit_periodic_orbits(system, max_period, lambda *block: blocks.append(block))
    _check_blocks(blocks, circle._BATCH_CODES)
    rows = flatten_blocks(blocks)
    # a small cap splits the larger periods over several blocks, each still
    # of one period, and hands over the same rows in the same order
    monkeypatch.setattr(circle, "_BATCH_CODES", 4)
    small = []
    visit_periodic_orbits(system, max_period, lambda *block: small.append(block))
    _check_blocks(small, 4)
    assert len(small) > len(blocks)
    assert flatten_blocks(small) == rows
    expected = []
    fraction_periodic_orbits(system, min(max_period, 6), lambda *call: expected.append(call))
    assert rows[:len(expected)] == expected
    assert all(len(w) > 6 for w, _, _ in rows[len(expected):])


@pytest.mark.parametrize("system", [doubling_map(), three_branch_doubling()],
                         ids=lambda s: s.name)
def test_batched_orbits_match_per_word_path(system):
    unit, rows = _integer_branches(system)
    assert all(_visit_batched(k, 2, rows, unit, lambda *call: None) for k in range(1, 13))
    calls = visited_orbits(system, 12)
    assert calls == _per_word_calls(system, 12)
    assert all(type(x) is int for _, xs, d in calls[::97] for x in xs + (d,))


def _random_eligible_system(rng):
    s = rng.choice((2, 3, 4))
    while True:
        branches = []
        for _ in range(rng.randint(1, 4)):
            den = rng.randint(1, 12)
            width = F(rng.randint(0, den), den * s)  # the image fits in [0, 1]
            lo = F(rng.randint(0, den), den) * (1 - width)
            low_off, high_off = -s * lo, 1 - s * (lo + width)
            offset = low_off + (high_off - low_off) * F(rng.randint(0, 6), 6)
            branches.append(Branch(F(s), offset, lo, lo + width))
        system = PiecewiseAffineMVSystem(tuple(branches))
        if _batch_slope(system) == s:
            return system


def test_batched_orbits_match_references_on_random_systems():
    rng = random.Random(808)
    total = 0
    for trial in range(40):
        system = _random_eligible_system(rng)
        period = {1: 10, 2: 9, 3: 7, 4: 6}[len(system.branches)]
        calls = visited_orbits(system, period)
        assert calls == _per_word_calls(system, period)
        if trial < 8:
            expected = []
            fraction_periodic_orbits(system, min(period, 6), lambda *call: expected.append(call))
            assert visited_orbits(system, min(period, 6)) == expected
        total += len(calls)
    assert total > 1000


def test_batched_path_falls_back_per_period_past_int64(monkeypatch):
    system = three_branch_doubling()
    reference = _per_word_calls(system, 9)
    unit, rows = _integer_branches(system)
    # a bound of 2^12 fits periods up to 7 only (3^8 > 2^12); later periods take the
    # per-word path and the calls stay the same
    monkeypatch.setattr(circle, "_INT64_SAFE", 1 << 12)
    fits = [_visit_batched(k, 2, rows, unit, lambda *call: None) for k in range(1, 10)]
    assert fits == [True] * 7 + [False] * 2
    assert visited_orbits(system, 9) == reference
    monkeypatch.undo()
    # a domain denominator of 2^62 fails the bound at every period
    fine = PiecewiseAffineMVSystem(branches=(
        Branch(F(2), F(0), F(0), F(1, 2) - F(1, 2 ** 62)),
        Branch(F(2), F(-1), F(1, 2), F(1)),
    ))
    unit, rows = _integer_branches(fine)
    assert _batch_slope(fine) == 2
    assert not _visit_batched(1, 2, rows, unit, lambda *call: None)
    expected = []
    fraction_periodic_orbits(fine, 6, lambda *call: expected.append(call))
    assert visited_orbits(fine, 6) == expected


def _lattice_rows(system, max_period):
    """The rows ``_visit_lattice`` hands over at each period, given the
    period's count."""
    lattice = _lattice_slope(system)
    blocks = []
    for k, count in enumerate(_lattice_counts(*lattice[:2], max_period), 1):
        _visit_lattice(k, lattice, count, lambda *block: blocks.append(block))
    return flatten_blocks(blocks)


def test_lattice_eligibility():
    assert _lattice_slope(pq_correspondence(2, 3)) == (3, 2, (0, 1))
    assert _lattice_slope(pq_correspondence(1, 2)) == (2, 1, (0,))
    assert _lattice_slope(pq_correspondence(3, 5)) == (5, 3, (0, 1, 2))
    pq35 = pq_correspondence(3, 5).branches
    rotated = PiecewiseAffineMVSystem(pq35[1:] + pq35[:1], metric="circle")
    assert _lattice_slope(rotated) == (5, 3, (2, 0, 1))
    half = PiecewiseAffineMVSystem(branches=(  # a wrap on [0, 1/2] only
        Branch(F(3), F(0), F(0), F(1, 2), wraps=True),
    ))
    repeated = PiecewiseAffineMVSystem(  # offsets 0, 0, 2/3 instead of 0, 1/3, 2/3
        (pq35[0], pq35[0], pq35[2]), metric="circle")
    missing = PiecewiseAffineMVSystem(pq35[:2], metric="circle")  # no branch of offset 2/3
    shifted = PiecewiseAffineMVSystem(  # offsets 1 and 3/2: equal mod 1, but not j/b
        tuple(Branch(br.slope, br.offset + 1, br.lo, br.hi, wraps=True)
              for br in pq_correspondence(2, 3).branches), metric="circle")
    for system in (pq_correspondence(2, 4), doubling_map(), three_branch_doubling(), MIXED,
                   NEGATIVE_WRAP, SHARED_IMAGE, half, repeated, missing, shifted):
        assert _lattice_slope(system) is None


@pytest.mark.parametrize("p, q, max_period", [
    (2, 3, 11), (1, 2, 12), (3, 4, 7), (2, 5, 7), (1, 3, 8), (4, 5, 6), (3, 7, 5), (5, 7, 4),
])
def test_lattice_orbits_match_per_word_path(p, q, max_period):
    system = pq_correspondence(p, q)
    blocks = []
    visit_periodic_orbits(system, max_period, lambda *block: blocks.append(block))
    assert all(numerators.dtype == np.int64 for _, numerators, _ in blocks)
    assert flatten_blocks(blocks) == _lattice_rows(system, max_period)
    # the same rows in the same blocks as the per-word path's blocks
    reference = _per_word_blocks(system, max_period)
    assert [len(words) for words, _, _ in blocks] == [len(words) for words, _, _ in reference]
    assert flatten_blocks(blocks) == flatten_blocks(reference)
    if (p, q) == (2, 3):  # the last period spans several chunks of lattice points and blocks
        assert 3 ** max_period - 2 ** max_period > circle._BATCH_CODES
        assert [len(w[0]) for w, _, _ in blocks].count(max_period) > 1


@pytest.mark.parametrize("p, q", [(2, 3), (1, 3), (2, 5), (3, 4)])
def test_lattice_orbits_match_fraction_oracle(p, q):
    system = pq_correspondence(p, q)
    max_period = 6 if p < 3 else 5
    expected = []
    fraction_periodic_orbits(system, max_period, lambda *call: expected.append(call))
    assert visited_orbits(system, max_period) == expected


def test_lattice_orbits_follow_the_branch_order():
    # the letters name branches by their place in ``system.branches``, so
    # relabelling reorders the necklaces and the rows, as on the per-word path
    pq23 = pq_correspondence(2, 3).branches
    pq35 = pq_correspondence(3, 5).branches
    swapped = PiecewiseAffineMVSystem(pq23[::-1], metric="circle")
    rotated = PiecewiseAffineMVSystem(pq35[1:] + pq35[:1], metric="circle")
    for system, max_period in ((swapped, 10), (rotated, 6)):
        rows = visited_orbits(system, max_period)
        assert rows == _lattice_rows(system, max_period)
        assert rows == _per_word_calls(system, max_period)
    # the same rows as pq:2,3's with the letters swapped, in another order
    relabelled = [(tuple(1 - c for c in w), xs, d)
                  for w, xs, d in visited_orbits(pq_correspondence(2, 3), 10)]
    got = visited_orbits(swapped, 10)
    assert sorted(got) == sorted(relabelled) and got != relabelled


def _coprime_pairs(q_max):
    return [(p, q) for q in range(2, q_max + 1) for p in range(1, q) if math.gcd(p, q) == 1]


def _periods_within(p, q, limit):
    """(k, count) for each period of pq:p,q whose running total of orbits
    stays within ``limit``."""
    total, periods = 0, []
    for k, count in enumerate(_lattice_counts(q, p, circle.ORBIT_PERIOD_LIMIT), 1):
        total += count
        if total > limit:
            break
        periods.append((k, count))
    return periods


def test_lattice_counts_match_the_enumeration():
    # the Moebius formula, the recursion in ``_lattice_counts`` and the rows
    # that ``_visit_lattice`` enumerates agree on every period within 20,000
    checked = 0
    for p, q in _coprime_pairs(12):
        lattice = _lattice_slope(pq_correspondence(p, q))
        for k, count in _periods_within(p, q, 20_000):
            assert count == sum(mobius(k // j) * (q ** j - p ** j) for j in divisors(k)) // k
            blocks = []
            _visit_lattice(k, lattice, count, lambda *block: blocks.append(block))
            assert sum(len(words) for words, _, _ in blocks) == count
            checked += 1
    assert checked > 200
    # a count that is off by one either way raises before any block is handed over
    lattice = _lattice_slope(pq_correspondence(2, 3))
    for count in (41, 43):
        blocks = []
        with pytest.raises(RuntimeError, match="does not hold its"):
            _visit_lattice(5, lattice, count, lambda *block: blocks.append(block))
        assert blocks == []


def test_lattice_periods_within_the_orbit_limit_fit_in_int64(monkeypatch):
    # the arithmetic of ``_visit_lattice``'s int64 check, which the count
    # before enumeration makes unreachable
    checked = 0
    for p, q in _coprime_pairs(300):
        for k, _count in _periods_within(p, q, circle.ORBIT_LIMIT):
            assert max(q ** k - p ** k, p) ** 2 < circle._INT64_SAFE
            checked += 1
    assert checked > 60_000
    # with a smaller bound the check raises, handing over nothing: d = 3^7 - 2^7
    # = 2059 passes 2^20 on d^2, where period 6 (d = 665) does not
    monkeypatch.setattr(circle, "_INT64_SAFE", 1 << 20)
    lattice = _lattice_slope(pq_correspondence(2, 3))
    counts = _lattice_counts(3, 2, 7)
    _visit_lattice(6, lattice, counts[5], lambda *block: None)
    blocks = []
    with pytest.raises(InputTooLargeError, match="period 7 do not fit in int64"):
        _visit_lattice(7, lattice, counts[6], lambda *block: blocks.append(block))
    assert blocks == []


def test_lattice_system_past_the_limit_hands_over_nothing():
    calls = []
    with pytest.raises(TooManyOrbitsError, match="more than 600000 periodic orbits"):
        visit_periodic_orbits(pq_correspondence(2, 3), 15, lambda *block: calls.append(block))
    assert calls == []


def test_lattice_blocks_with_a_small_cap(monkeypatch):
    system = pq_correspondence(3, 4)
    rows = visited_orbits(system, 6)
    monkeypatch.setattr(circle, "_BATCH_CODES", 4)
    small = []
    visit_periodic_orbits(system, 6, lambda *block: small.append(block))
    _check_blocks(small, 4)
    assert len(small) > 4 * 6
    assert flatten_blocks(small) == rows


def test_orbit_limit_admits_exactly_its_count_of_rows_on_the_lattice_path(monkeypatch):
    system = pq_correspondence(3, 4)
    rows = visited_orbits(system, 6)
    assert rows == _lattice_rows(system, 6)
    n = len(rows)
    monkeypatch.setattr(circle, "_BATCH_CODES", 64)  # many chunks in the last period
    monkeypatch.setattr(circle, "ORBIT_LIMIT", n)
    assert visited_orbits(system, 6) == rows
    monkeypatch.setattr(circle, "ORBIT_LIMIT", n - 1)
    blocks = []
    with pytest.raises(TooManyOrbitsError, match=f"more than {n - 1} periodic orbits"):
        visit_periodic_orbits(system, 6, lambda *block: blocks.append(block))
    # every period is counted before any is enumerated, so nothing is handed over
    assert blocks == []


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
        k, pts = o.period, fraction_points(o)
        rotations = [
            (pts[r:] + pts[:r], o.itinerary[r:] + o.itinerary[:r])
            for r in range(k)
        ]
        assert min(rotations) == (pts, o.itinerary)
    with pytest.raises(ValueError):
        enumerate_periodic_orbits(d, 25)


@pytest.mark.parametrize("system, max_period, path", [
    pytest.param(doubling_map(), 8, "batched", id="batched"),
    pytest.param(pq_correspondence(2, 3), 8, "lattice", id="lattice"),
    # pq:2,4 (slope 2/1, offsets 0 and 1/2) fits neither numpy path
    pytest.param(pq_correspondence(2, 4), 6, "per-word", id="per-word"),
])
def test_orbit_limit_admits_exactly_its_count_of_rows(system, max_period, path, monkeypatch):
    assert path == ("batched" if _batch_slope(system) is not None else
                    "lattice" if _lattice_slope(system) is not None else "per-word")
    n = len(visited_orbits(system, max_period))
    monkeypatch.setattr(circle, "ORBIT_LIMIT", n)
    assert len(visited_orbits(system, max_period)) == n
    monkeypatch.setattr(circle, "ORBIT_LIMIT", n - 1)
    with pytest.raises(TooManyOrbitsError, match=f"more than {n - 1} periodic orbits"):
        visit_periodic_orbits(system, max_period, lambda *block: None)


def test_orbit_limit_admits_exactly_its_count_of_rows_on_the_per_word_path(monkeypatch):
    # pq:2,4 (slope 2/1, offsets 0 and 1/2) fits neither numpy path
    system = pq_correspondence(2, 4)
    assert _batch_slope(system) is None and _lattice_slope(system) is None
    rows = visited_orbits(system, 6)
    n = len(rows)
    before = sum(len(w) < 6 for w, _, _ in rows)
    monkeypatch.setattr(circle, "_BATCH_CODES", 4)  # many blocks in the last period
    monkeypatch.setattr(circle, "ORBIT_LIMIT", n)
    assert visited_orbits(system, 6) == rows
    monkeypatch.setattr(circle, "ORBIT_LIMIT", n - 1)
    blocks = []
    with pytest.raises(TooManyOrbitsError, match=f"more than {n - 1} periodic orbits"):
        visit_periodic_orbits(system, 6, lambda *block: blocks.append(block))
    # the rows are counted block by block as they are handed over, so the
    # last period's full blocks before the one that passes the limit arrive
    handed = flatten_blocks(blocks)
    assert before < len(handed) < n
    assert handed == rows[:len(handed)]


def test_orbit_limit_stops_one_word_with_too_many_points(monkeypatch):
    # x -> 10x mod 1 has 9 fixed points, all on the one-letter word
    unit, rows = _integer_branches(pq_correspondence(1, 10))
    monkeypatch.setattr(circle, "ORBIT_LIMIT", 9)
    assert len(_word_orbits((0,), rows, unit)[1]) == 9
    monkeypatch.setattr(circle, "ORBIT_LIMIT", 8)
    with pytest.raises(TooManyOrbitsError):
        _word_orbits((0,), rows, unit)


def test_wrapping_points_live_in_unit_interval():
    pq = pq_correspondence(2, 3)
    for o in enumerate_periodic_orbits(pq, 6):
        assert all(0 <= p < 1 for p in fraction_points(o))


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
        images_x = [b.apply(x) for b in branches if b.lo <= x <= b.hi]
        images_y = [b.apply(y) for b in branches if b.lo <= y <= b.hi]
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


def test_periodic_orbit_integer_form():
    third = PeriodicOrbit((0, 1), (1, 2), 3)
    assert third.period == 2
    assert fraction_points(third) == (F(1, 3), F(2, 3))
    assert third.itinerary_string() == "01"
    assert orbit_over_lcm([F(1, 3), F(2, 3)], (0, 1)) == third
    # the lcm of reduced denominators leaves the numerators in lowest terms
    mixed = orbit_over_lcm([F(1, 2), F(1, 4), F(0), 1])
    assert (mixed.numerators, mixed.denominator) == ((2, 1, 0, 4), 4)
    assert orbit_over_lcm([0.5, 0.75]) == PeriodicOrbit((0, 0), (2, 3), 4)


def test_barycentre_examples():
    fixed = orbit_over_lcm([F(1, 8)])
    z = barycentre(fixed)
    assert abs(abs(z) - 1) < 1e-12

    third = orbit_over_lcm([F(1, 3), F(2, 3)], (0, 1))
    assert abs(barycentre(third) - (-0.5)) < 1e-12

    quarters = orbit_over_lcm([F(0), F(1, 4), F(1, 2), F(3, 4)])
    assert abs(barycentre(quarters)) < 1e-12


def test_is_sturmian_examples():
    fixed = orbit_over_lcm([F(1, 5)])
    assert is_sturmian(fixed, F(1, 100))

    antipodal = orbit_over_lcm([F(0), F(1, 2)])
    assert not is_sturmian(antipodal, F(1, 4))
    assert is_sturmian(antipodal, F(1, 2))

    assert is_sturmian(orbit_over_lcm([F(0), F(1, 5), F(2, 5)]), F(2, 5))
    assert not is_sturmian(orbit_over_lcm([F(0), F(1, 5), F(2, 5), F(3, 5)]), F(2, 5))


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
    assert is_sturmian(orbit_over_lcm(pts), arc) == brute


def test_is_sturmian_integer_gaps_pin_edge_cases():
    cases = [
        # a point at 1 is the point 0: doubling's fixed point at 1 and at 0
        ([F(1), F(0)], F(1, 100), True),
        ([F(1), F(1, 2)], F(1, 2), True),
        ([F(1), F(1, 2)], F(1, 4), False),
        # a largest gap of exactly 1 - arc: the closed arc holds every point
        ([F(0), F(1, 3)], F(1, 3), True),
        ([F(1, 6), F(1, 3), F(1, 2)], F(1, 3), True),
        ([F(1, 6), F(1, 3), F(1, 2)], F(1, 3) - F(1, 10 ** 30), False),
        # arc = 1 holds any point set
        ([F(0), F(1, 3), F(2, 3)], 1, True),
        ([F(k, 97) for k in range(97)], F(1), True),
        # a float arc length is read as its exact binary rational
        ([F(0), F(1, 4)], 0.25, True),
        ([F(0), F(1, 10)], 0.1, True),  # the float 0.1 exceeds 1/10
        ([F(0), F(1, 10)], math.nextafter(0.1, 0), False),
        ([0.0, 0.1], 0.1, True),
        # repeated points count once
        ([F(1, 5)] * 4, F(1, 100), True),
        ([F(0), F(0), F(1, 2), F(1, 2), F(1)], F(1, 2), True),
        ([F(0), F(0), F(1, 2), F(1, 2), F(1)], F(1, 3), False),
        # points outside [0, 1) are taken mod 1
        ([F(-1, 4), F(5, 4)], F(1, 2), True),
        ([F(-1, 4), F(5, 4)], F(1, 3), False),
    ]
    for points, arc, expected in cases:
        assert is_sturmian(orbit_over_lcm(points), arc) is expected, (points, arc)
        assert fraction_is_sturmian(points, arc) is expected, (points, arc)
    for arc in (0, -F(1, 2), F(3, 2), 1.5):
        with pytest.raises(ValueError):
            is_sturmian(orbit_over_lcm([F(0)]), arc)
    assert is_sturmian(orbit_over_lcm([]), F(1, 2))


def test_is_sturmian_matches_fraction_oracle_on_orbits():
    for system, period in ((pq_correspondence(2, 3), 8), (three_branch_doubling(), 8),
                           (doubling_map(), 10)):
        orbits = enumerate_periodic_orbits(system, period)
        for arc in (F(1, 4), F(1, 3), F(1, 2), F(2, 3), 1, 0.3):
            flags = [is_sturmian(o, arc) for o in orbits]
            assert flags == [fraction_is_sturmian(o, arc) for o in orbits]
            if arc != 1:
                assert True in flags and False in flags


@pytest.mark.parametrize("system, period", [
    (pq_correspondence(2, 3), 8),
    (three_branch_doubling(), 8),
    (doubling_map(), 10),
], ids=["pq23-8", "threebranch-8", "doubling-10"])
def test_barycentre_matches_fraction_reference(system, period):
    # x / d on the integer points rounds as float(Fraction(x, d)) does, so
    # the barycentre keeps its bits
    orbits = enumerate_periodic_orbits(system, period)
    assert all(barycentre(o) == fraction_barycentre(o) for o in orbits)


@pytest.mark.parametrize("system, period", [
    (pq_correspondence(2, 3), 8),
    (pq_correspondence(1, 2), 9),
    (three_branch_doubling(), 8),
    (doubling_map(), 10),
], ids=["pq23-8", "pq12-9", "threebranch-8", "doubling-10"])
def test_enumerate_periodic_orbits_integer_sort_matches_fraction_sort(system, period):
    orbits = enumerate_periodic_orbits(system, period)
    assert orbits == fraction_sorted_orbits(system, period)
    for o in orbits:
        assert type(o.denominator) is int and o.denominator > 0
        assert all(type(x) is int for x in o.itinerary + o.numerators)
        assert math.gcd(o.denominator, *o.numerators) == 1


def test_pq23_mixes_denominators_within_one_period():
    # the integer sort scales numerators over several denominators per period
    dens: dict[int, set] = {}
    for w, _, d in visited_orbits(pq_correspondence(2, 3), 8):
        dens.setdefault(len(w), set()).add(d)
    assert max(len(v) for v in dens.values()) == 5


def test_necklaces_fkm_against_brute_force():
    for length in range(1, 7):
        for alphabet in (1, 2, 3):
            words = set()
            for_each_necklace(length, alphabet,
                              lambda a: words.add(tuple(a[1:length + 1])))
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
