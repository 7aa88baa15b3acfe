"""measures: circulations, invariance, extreme points."""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mvergo.measures
from mvergo.measures import (
    MEASURE_SUPPORT_LIMIT,
    Cycle,
    EdgeCirculation,
    TooManySupportsError,
    VertexMeasure,
    _support_key,
    convex_combination,
    cycle_measure,
    extreme_invariant_measures,
    invariant_by_subsets,
    is_invariant,
)
from mvergo.system import FiniteMVSystem, simple_cycles
from oracles import (
    fraction_convex_combination,
    fraction_is_invariant,
    identity_system,
    marginals,
    polytope_extreme_measures,
    subset_loop_invariance,
    unfiltered_extreme_measures,
    z4_system,
)

F = Fraction


def dirac(n, x):
    return VertexMeasure.make(tuple(F(1) if i == x else F(0) for i in range(n)))


def test_vertex_measure_validation():
    with pytest.raises(ValueError):
        VertexMeasure.make((F(1, 2), F(1, 4)))
    with pytest.raises(ValueError):
        VertexMeasure.make((F(3, 2), F(-1, 2)))
    VertexMeasure.make((0.5, 0.5))
    # one policy: exact mass for rationals, 1e-9 for floats
    VertexMeasure.make((0.5, 0.5 + 5e-10))
    with pytest.raises(ValueError, match="must sum to 1"):
        VertexMeasure.make((0.5, 0.5 + 2e-9))
    with pytest.raises(ValueError, match="must sum to 1"):
        VertexMeasure.make((F(1, 2), F(1, 2) + F(1, 10**12)))


def test_circulation_validation():
    two = FiniteMVSystem.make(2, [(0, 1), (1, 0)])
    EdgeCirculation.make(two, (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        EdgeCirculation.make(two, (F(1), F(0)))  # unbalanced at both states


def test_marginals_examples():
    two = FiniteMVSystem.make(2, [(0, 1), (1, 0)])
    c = EdgeCirculation.make(two, (F(1, 2), F(1, 2)))
    tail, head = marginals(c, two)
    assert tail.weights == head.weights == (F(1, 2), F(1, 2))

    z4 = z4_system()
    c = EdgeCirculation.make(z4, tuple(F(1, 8) for _ in range(8)))
    tail, head = marginals(c, z4)
    assert tail.weights == head.weights == tuple(F(1, 4) for _ in range(4))


def test_cycle_measure_examples():
    loop = FiniteMVSystem.make(1, [(0, 0)])
    vm, circ = cycle_measure(Cycle((0,)), loop)
    assert vm.weights == (F(1),) and circ.weights == (F(1),)

    z4 = z4_system()
    vm, circ = cycle_measure(Cycle((0, 1)), z4)
    assert vm.weights == (F(1, 2), F(1, 2), F(0), F(0))
    ok, witness = is_invariant(z4, vm)
    assert ok and witness is not None

    four = Cycle((0, 1, 2, 3))
    vm, _ = cycle_measure(four, z4)
    assert vm.weights == tuple(F(1, 4) for _ in range(4))


def test_cycle_measure_marginal_uniform_on_cycle():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 7)
        ring = FiniteMVSystem.make(n, [(i, (i + 1) % n) for i in range(n)])
        vm, circ = cycle_measure(Cycle(tuple(range(n))), ring)
        tail, head = marginals(circ, ring)
        assert tail.weights == head.weights == vm.weights
        assert set(vm.weights) == {F(1, n)}


def test_is_invariant_examples():
    z4 = z4_system()
    ok, witness = is_invariant(z4, VertexMeasure.make((F(1, 2), F(1, 2), F(0), F(0))))
    assert ok
    tail, head = marginals(witness, z4)
    assert tail.weights == head.weights == (F(1, 2), F(1, 2), F(0), F(0))

    ok, witness = is_invariant(z4, dirac(4, 0))
    assert not ok and witness is None

    ident = identity_system(3)
    for mu in (dirac(3, 1), VertexMeasure.make((F(1, 3),) * 3)):
        ok, _ = is_invariant(ident, mu)
        assert ok

    with pytest.raises(ValueError):
        is_invariant(z4, VertexMeasure((F(1, 2), F(0), F(0), F(0))))


def test_is_invariant_floats():
    z4 = z4_system()
    ok, witness = is_invariant(z4, VertexMeasure.make((0.5, 0.5, 0.0, 0.0)))
    assert ok and witness is not None
    ok, _ = is_invariant(z4, VertexMeasure.make((1.0, 0.0, 0.0, 0.0)))
    assert not ok
    # a flow deficit within the tolerance is accepted, and the witness built
    # from that flow passes the same tolerance
    ok, witness = is_invariant(z4, VertexMeasure.make((0.5, 0.5 - 5e-10, 5e-10, 0.0)))
    assert ok
    tail, head = marginals(witness, z4)
    assert all(abs(a - b) <= 1e-9 for a, b in zip(tail.weights, head.weights))


def random_cyclic_system(rng, max_states=6):
    n = rng.randint(2, max_states)
    edges = set()
    cyc = rng.sample(range(n), rng.randint(1, n))
    for i in range(len(cyc)):
        edges.add((cyc[i], cyc[(i + 1) % len(cyc)]))
    for _ in range(rng.randint(0, 2 * n)):
        edges.add((rng.randrange(n), rng.randrange(n)))
    return FiniteMVSystem.make(n, edges)


def test_is_invariant_matches_subset_oracle():
    rng = random.Random(12)
    for _ in range(40):
        s = random_cyclic_system(rng)
        n = s.n_states
        # random rational measure
        raw = [F(rng.randint(0, 6)) for _ in range(n)]
        if sum(raw) == 0:
            raw[0] = F(1)
        total = sum(raw)
        mu = VertexMeasure.make(tuple(v / total for v in raw))
        flow_ok, witness = is_invariant(s, mu)
        assert flow_ok == invariant_by_subsets(s, mu)
        if flow_ok:
            tail, head = marginals(witness, s)
            assert tail.weights == mu.weights == head.weights


def test_is_invariant_matches_fraction_oracle():
    # integer-scaled flow against the Fraction flow: same decision, same
    # witness; and the same decision as Hall's condition
    rng = random.Random(19)
    outcomes = set()
    checked = 0
    for _ in range(220):
        s = random_cyclic_system(rng, max_states=8)
        n = s.n_states
        cycle_weights = [cycle_measure(Cycle(c), s)[0].weights for c in simple_cycles(s)]
        mix = [F(rng.randint(0, 5), rng.randint(1, 7)) for _ in cycle_weights]
        mix[rng.randrange(len(mix))] += 1
        invariant = [sum(a * w[x] for a, w in zip(mix, cycle_weights)) / sum(mix) for x in range(n)]
        raw = [F(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(n)]
        raw[rng.randrange(n)] += 1
        # move mass from a state of the support to another state
        shifted = list(invariant)
        src = rng.choice([x for x in range(n) if shifted[x] > 0])
        share = shifted[src] / rng.randint(1, 3)
        shifted[src] -= share
        shifted[rng.randrange(n)] += share
        for weights in (invariant, [v / sum(raw) for v in raw], shifted):
            mu = VertexMeasure.make(weights)
            got = is_invariant(s, mu)
            assert got == fraction_is_invariant(s, mu)
            assert got[0] == invariant_by_subsets(s, mu)
            outcomes.add(got[0])
            checked += 1
    assert checked >= 600 and outcomes == {True, False}


def test_invariant_by_subsets_matches_per_subset_loop():
    rng = random.Random(17)
    outcomes = set()
    for _ in range(120):
        s = random_cyclic_system(rng, max_states=8)
        n = s.n_states
        cycle_weights = [cycle_measure(Cycle(c), s)[0].weights for c in simple_cycles(s)]
        mix = [F(rng.randint(1, 5)) for _ in cycle_weights]
        invariant = [sum(a * w[x] for a, w in zip(mix, cycle_weights)) / sum(mix) for x in range(n)]
        raw = [F(rng.randint(0, 6)) for _ in range(n)]
        raw[rng.randrange(n)] += 1
        measures = [invariant, [v / sum(raw) for v in raw], [F(1, n)] * n]
        for weights in measures:
            mu = VertexMeasure.make(weights)
            decision = invariant_by_subsets(s, mu)
            assert decision == subset_loop_invariance(s, mu)
            outcomes.add(decision)
        assert invariant_by_subsets(s, VertexMeasure.make(invariant))
    assert outcomes == {True, False}


def test_invariance_convex_combinations():
    rng = random.Random(13)
    for _ in range(15):
        s = random_cyclic_system(rng)
        cycles = simple_cycles(s)
        if len(cycles) < 2:
            continue
        m1, _ = cycle_measure(Cycle(cycles[0]), s)
        m2, _ = cycle_measure(Cycle(cycles[-1]), s)
        for a in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
            mix = VertexMeasure.make(
                tuple(a * u + (1 - a) * v for u, v in zip(m1.weights, m2.weights))
            )
            ok, _ = is_invariant(s, mix)
            assert ok


def test_single_valued_classical_invariance():
    # with one out-edge per state, invariance means mu(A) = mu(T^-1 A) for all A
    rng = random.Random(14)
    for _ in range(25):
        n = rng.randint(2, 8)
        s = FiniteMVSystem.make(n, [(x, rng.randrange(n)) for x in range(n)])
        raw = [F(rng.randint(0, 5)) for _ in range(n)]
        if sum(raw) == 0:
            raw[0] = F(1)
        total = sum(raw)
        mu = VertexMeasure.make(tuple(v / total for v in raw))
        ok, _ = is_invariant(s, mu)
        pred = s.predecessors
        classical = True
        for mask in range(1 << n):
            members = [x for x in range(n) if mask >> x & 1]
            pre = set()
            for x in members:
                pre.update(pred[x])
            if sum(mu.weights[x] for x in members) != sum(mu.weights[x] for x in pre):
                classical = False
                break
        assert ok == classical


def test_extreme_measures_z4():
    z4 = z4_system()
    extremes = extreme_invariant_measures(z4)
    expected = sorted(
        tuple(F(1, 2) if i in (x, (x + 1) % 4) else F(0) for i in range(4))
        for x in range(4)
    )
    assert [e.weights for e in extremes] == expected
    # the uniform measure is invariant but not extreme
    uniform = VertexMeasure.make((F(1, 4),) * 4)
    ok, _ = is_invariant(z4, uniform)
    assert ok
    assert uniform.weights not in {e.weights for e in extremes}


def test_extreme_measures_identity():
    ident = identity_system(4)
    extremes = extreme_invariant_measures(ident)
    assert [e.weights for e in extremes] == sorted(dirac(4, x).weights for x in range(4))


def test_extreme_measures_empty_orbit_space():
    s = FiniteMVSystem.make(3, [(0, 1), (1, 2)])
    assert extreme_invariant_measures(s) == []


def test_extreme_measures_against_polytope_oracle():
    rng = random.Random(15)
    checked = 0
    for _ in range(40):
        s = random_cyclic_system(rng, max_states=5)
        oracle = polytope_extreme_measures(s, combo_cap=40_000)
        if oracle is None:
            continue
        got = [e.weights for e in extreme_invariant_measures(s)]
        assert got == oracle
        checked += 1
    assert checked >= 15


def test_extreme_measures_certificates_n6():
    # full vertex enumeration blows up at n = 6; certify both directions
    # exactly instead: survivors carry a full-rank active-constraint set,
    # eliminated candidates carry a verified convex-combination witness
    from mvergo.measures import convex_combination
    from oracles import vertex_certificate

    rng = random.Random(16)
    checked = 0
    for _ in range(30):
        s = random_cyclic_system(rng, max_states=6)
        if s.n_states < 5:
            continue
        candidates = sorted(
            {cycle_measure(Cycle(c), s)[0].weights for c in simple_cycles(s)}
        )
        survivors = {e.weights for e in extreme_invariant_measures(s)}
        for cand in candidates:
            others = [c for c in candidates if c != cand]
            if cand in survivors:
                assert vertex_certificate(s, cand)
            else:
                weights = convex_combination(cand, others)
                assert weights is not None
                assert sum(weights) == 1 and all(w >= 0 for w in weights)
                for coord in range(s.n_states):
                    assert sum(w * o[coord] for w, o in zip(weights, others)) == cand[coord]
        checked += 1
    assert checked >= 6


def finite_small_systems(seeds, workdir, monkeypatch):
    """The graphs of pass 0 of the finite-small benchmark workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for seed in seeds:
        job = workloads.build("finite-small", seed, 0, "full", workdir / str(seed))
        for g in job.graphs.values():
            yield FiniteMVSystem.make(g.n, g.edges)


def test_extreme_measures_match_unfiltered_oracle(tmp_path, monkeypatch):
    rng = random.Random(18)
    systems = [random_cyclic_system(rng, max_states=8) for _ in range(300)]
    systems += list(finite_small_systems((301, 302, 303), tmp_path, monkeypatch))
    for s in systems:
        got = extreme_invariant_measures(s)
        want = unfiltered_extreme_measures(s)
        assert [e.weights for e in got] == [e.weights for e in want]


def _hub(n):
    """Hub 0 with the 2-cycles 0 <-> i for every i, and i <-> i + 1 for odd
    i: the 3-cycles through 0, i and i + 1 are mixtures of 2-cycles."""
    edges = [(0, i) for i in range(1, n)] + [(i, 0) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n - 1, 2)] + [(i + 1, i) for i in range(1, n - 1, 2)]
    return FiniteMVSystem.make(n, edges)


def test_extreme_measures_integer_key_orders_as_the_fraction_weights():
    # candidates are sorted by an integer key, not by their Fraction weight
    # vectors; the order of the candidates, and so of the survivors, is the same
    rng = random.Random(19)
    systems = [random_cyclic_system(rng, max_states=9) for _ in range(200)] + [_hub(41)]
    for s in systems:
        n = s.n_states
        state_sets = {frozenset(c) for c in simple_cycles(s)}
        by_weights = sorted(state_sets, key=lambda states: tuple(
            F(1, len(states)) if x in states else F(0) for x in range(n)))
        assert sorted(state_sets, key=lambda states: _support_key(states, n)) == by_weights
        weights = [tuple(F(1, len(states)) if x in states else F(0) for x in range(n))
                   for states in by_weights]
        got = [e.weights for e in extreme_invariant_measures(s)]
        assert got == [w for w in weights if w in set(got)]


def test_extreme_measures_of_a_hub_with_a_thousand_supports():
    # 500 + 250 2-cycles survive, the 250 3-cycles do not; sorting the
    # candidates by Fraction weight vectors alone took about 4 s here
    s = _hub(501)
    extremes = [e.weights for e in extreme_invariant_measures(s)]
    assert len(extremes) == 750
    assert all(sorted(set(w)) == [0, F(1, 2)] for w in extremes)


def counting_convex_combination(monkeypatch):
    calls = []
    real = mvergo.measures.convex_combination

    def counting(target, points):
        calls.append((list(target), [list(p) for p in points]))
        return real(target, points)

    monkeypatch.setattr(mvergo.measures, "convex_combination", counting)
    return calls


def test_extreme_measures_square_eliminated_by_its_two_halves(monkeypatch):
    # the 4-cycle 0->1->2->3->0 with the 2-cycles 0<->1 and 2<->3: the
    # uniform measure is half of each 2-cycle measure
    s = FiniteMVSystem.make(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0), (3, 2)])
    calls = counting_convex_combination(monkeypatch)
    extremes = [e.weights for e in extreme_invariant_measures(s)]
    half = F(1, 2)
    assert extremes == [(0, 0, half, half), (half, half, 0, 0)]
    assert calls == [([F(1, 4)] * 4, [[0, 0, half, half], [half, half, 0, 0]])]


def test_extreme_measures_no_lp_without_a_covering_sub_support(monkeypatch):
    calls = counting_convex_combination(monkeypatch)
    # disjoint self-loops: no support lies inside another
    assert len(extreme_invariant_measures(identity_system(4))) == 4
    # {0, 1} lies inside {0, 1, 2} but does not cover state 2
    nested = FiniteMVSystem.make(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
    assert len(extreme_invariant_measures(nested)) == 2
    assert calls == []
    # z4: only the full support holds other supports, so one LP runs
    assert len(extreme_invariant_measures(z4_system())) == 4
    assert len(calls) == 1 and calls[0][0] == [F(1, 4)] * 4


def _flower(petals):
    """Hub 0 with the 2-cycles 0 <-> i and a self-loop at every state:
    2 * petals + 1 distinct cycle supports."""
    edges = [(0, i) for i in range(1, petals + 1)] + [(i, 0) for i in range(1, petals + 1)]
    return FiniteMVSystem.make(petals + 1, edges + [(x, x) for x in range(petals + 1)])


def test_extreme_measures_support_limit_fails_fast(monkeypatch):
    calls = counting_convex_combination(monkeypatch)
    petals = MEASURE_SUPPORT_LIMIT // 2
    with pytest.raises(TooManySupportsError) as info:
        extreme_invariant_measures(_flower(petals))
    assert info.value.limit == MEASURE_SUPPORT_LIMIT
    assert str(MEASURE_SUPPORT_LIMIT) in str(info.value)
    assert calls == []  # raised before any elimination LP
    # z4 has 5 distinct supports: a limit of 5 lets it through, 4 does not
    monkeypatch.setattr(mvergo.measures, "MEASURE_SUPPORT_LIMIT", 5)
    assert len(extreme_invariant_measures(z4_system())) == 4
    monkeypatch.setattr(mvergo.measures, "MEASURE_SUPPORT_LIMIT", 4)
    with pytest.raises(TooManySupportsError):
        extreme_invariant_measures(z4_system())


def random_lp(rng):
    """A convex-combination LP of up to 5 coordinates and 9 points, with int,
    Fraction and float entries, and its kind: no points, a mixture of the
    points (feasible), a target with negative entries, or a random target."""
    dim, m = rng.randint(0, 5), rng.randint(0, 7)

    def number():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(0, 3)
        if kind == 1:
            return rng.choice((0.0, 0.1, 0.25, 0.5, 1.0))
        return F(rng.randint(0, 4), rng.randint(1, 6))

    points = [[number() for _ in range(dim)] for _ in range(m)]
    if rng.random() < 0.5:  # probability vectors, as the callers pass
        points = [[F(v) / sum(map(F, p)) for v in p] if sum(p) else p for p in points]
    if points:  # repeated columns
        points += [list(rng.choice(points)) for _ in range(rng.randint(0, 2))]
    kind = "empty" if not points else rng.choice(("mixture", "negative" if dim else "random", "random"))
    if kind == "mixture":
        lam = [F(rng.randint(0, 2)) for _ in points]
        lam[rng.randrange(len(lam))] += 1
        target = [sum(a * F(p[i]) for a, p in zip(lam, points)) / sum(lam) for i in range(dim)]
    elif kind == "negative":
        target = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim)]
        target[rng.randrange(dim)] = F(-rng.randint(1, 3), rng.randint(1, 4))
    else:
        target = [number() for _ in range(dim)]
    return kind, target, points


def test_convex_combination_matches_fraction_oracle():
    # fraction-free pivots against the Fraction simplex: the same weights,
    # as Fractions, or None in both
    rng = random.Random(20)
    seen = {}
    for _ in range(5000):
        kind, target, points = random_lp(rng)
        got = convex_combination(target, points)
        assert got == fraction_convex_combination(target, points), (target, points)
        assert got is None or all(type(w) is F for w in got)
        key = (kind, got is not None)
        seen[key] = seen.get(key, 0) + 1
    assert seen[("empty", False)] >= 100 and seen[("mixture", True)] >= 1000
    assert seen[("negative", False)] >= 500 and seen[("random", False)] >= 500
    assert seen[("random", True)] >= 100


def test_convex_combination_matches_fraction_oracle_on_benchmark_graphs(tmp_path, monkeypatch):
    # every elimination LP of the finite-small benchmark's pass-0 graphs, and
    # the unfiltered LP of each candidate against all the others
    calls = counting_convex_combination(monkeypatch)
    for s in finite_small_systems((301, 302, 303), tmp_path, monkeypatch):
        extreme_invariant_measures(s)
        candidates = sorted({cycle_measure(Cycle(c), s)[0].weights for c in simple_cycles(s)})
        calls += [(list(c), [list(o) for o in candidates if o != c]) for c in candidates]
    outcomes = set()
    for target, points in calls:
        got = convex_combination(target, points)
        assert got == fraction_convex_combination(target, points)
        outcomes.add(got is None)
    assert len(calls) >= 150 and outcomes == {True, False}


def test_convex_combination_pivot_path_pinned():
    # the target is 1/4 p0 + 3/4 p3 and also 1/2 p2 + 1/2 p3; Bland's rule
    # (first improving column, lowest basis index among tied ratios) on the
    # uniformly scaled tableau reaches the first; breaking ratio ties the
    # other way, or scaling each row by its own lcm (which changes the
    # phase-1 objective), reaches the second
    third = F(1, 3)
    points = [[0, third, 2 * third], [0, 2 * third, third], [third, third, third],
              [2 * third, third, 0]]
    target = [F(1, 2), third, F(1, 6)]
    assert convex_combination(target, points) == [F(1, 4), 0, 0, F(3, 4)]
