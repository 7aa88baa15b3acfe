"""mea-engine: cycle means, finite horizons, witnesses, oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import mvergo.mea as mea_mod
from mvergo._numbers import NEG_INF, float_tolerance
from mvergo.io import loads_system
from mvergo.bounds import make_family, outer_grid_system
from mvergo.circle import doubling_map, pq_correspondence, three_branch_doubling
from mvergo.mea import (
    NoCycleError,
    NoPathError,
    PolicyIterationError,
    alpha_state,
    brute_force_alpha,
    delta_finite_horizon,
    delta_sequence,
    epsilon_witness,
    max_mean_cycle,
    max_mean_cycle_value,
    max_mean_cycle_value_float,
    maximizing_measures,
    mea_report,
)
from mvergo.measures import Cycle, is_invariant
from mvergo.subaction import subaction_for_state_function
from mvergo.system import FiniteMVSystem, graph_system, lift_function
from mvergo.verify import make_instances
from oracles import dfs_simple_cycles, karp_max_mean_cycle_value_float, z4_system

F = Fraction


def indicator(n, i):
    return tuple(F(1) if x == i else F(0) for x in range(n))


def test_max_mean_cycle_examples():
    loop = FiniteMVSystem.make(1, [(0, 0)])
    val, cyc = max_mean_cycle(loop, (F(7, 2),))
    assert val == F(7, 2) and cyc.states == (0,)

    z4 = z4_system()
    w = lift_function(indicator(4, 0), z4)
    val, cyc = max_mean_cycle(z4, w)
    assert val == F(1, 2)
    assert cyc.states == (0, 1)  # shortest, then lexicographically smallest

    two_loops = FiniteMVSystem.make(2, [(0, 0), (1, 1)])
    val, cyc = max_mean_cycle(two_loops, (F(3), F(5)))
    assert val == 5 and cyc.states == (1,)


def test_max_mean_cycle_acyclic_raises():
    chain = FiniteMVSystem.make(3, [(0, 1), (1, 2)])
    with pytest.raises(NoCycleError):
        max_mean_cycle(chain, (F(0), F(0)))
    assert brute_force_alpha(chain, (F(1), F(2), F(3))) is NEG_INF


def test_alpha_state_examples():
    z4 = z4_system()
    assert alpha_state(z4, (F(3), F(3), F(3), F(3)))[0] == 3
    assert alpha_state(z4, indicator(4, 0))[0] == F(1, 2)


def test_alpha_equals_brute_force_randomized():
    rng = random.Random(21)
    for inst in make_instances(21, 120):
        assert alpha_state(inst.system, inst.f)[0] == brute_force_alpha(inst.system, inst.f)
    del rng


def test_brute_force_matches_dfs_cycle_oracle():
    rng = random.Random(22)
    for inst in make_instances(22, 60):
        cycles = dfs_simple_cycles(inst.system)
        best = max(
            F(sum(inst.f[x] for x in c)) / len(c) for c in cycles
        )
        assert brute_force_alpha(inst.system, inst.f) == best
    del rng


def test_brute_force_guard():
    big = FiniteMVSystem.make(13, [(x, x) for x in range(13)])
    with pytest.raises(ValueError):
        brute_force_alpha(big, tuple(F(0) for _ in range(13)))


def test_delta_examples():
    loop = FiniteMVSystem.make(1, [(0, 0)])
    for n in (0, 1, 5, 9):
        assert delta_finite_horizon(loop, (F(4),), n) == 4

    z4 = z4_system()
    assert delta_finite_horizon(z4, indicator(4, 0), 1) == F(1, 2)

    chain = FiniteMVSystem.make(3, [(0, 1), (1, 2)])
    f = (F(1), F(0), F(0))
    assert delta_finite_horizon(chain, f, 2) == F(1, 3)
    with pytest.raises(NoPathError):
        delta_finite_horizon(chain, f, 3)


def test_delta_enumeration_oracle_z4():
    # enumerate all paths of length n by brute force and compare
    z4 = z4_system()
    f = indicator(4, 0)
    succ = z4.successors

    def all_paths(n):
        paths = [[x] for x in range(4)]
        for _ in range(n):
            paths = [p + [y] for p in paths for y in succ[p[-1]]]
        return paths

    for n in range(5):
        best = max(sum(f[x] for x in p) for p in all_paths(n))
        assert delta_finite_horizon(z4, f, n) == F(best) / (n + 1)


def test_delta_sequence_matches_single_calls():
    z4 = z4_system()
    f = indicator(4, 0)
    seq = delta_sequence(z4, f, 12)
    assert [n for n, _ in seq] == list(range(13))
    for n, d in seq:
        assert d == delta_finite_horizon(z4, f, n)


def test_epsilon_witness_examples():
    loop = FiniteMVSystem.make(1, [(0, 0)])
    assert epsilon_witness(Cycle((0,)), (F(2),)) == 0

    # 2-cycle with f-values (1, 0): rotation starts at the value-1 state
    assert epsilon_witness(Cycle((0, 1)), (F(1), F(0))) == 0
    assert epsilon_witness(Cycle((0, 1)), (F(0), F(1))) == 1

    assert epsilon_witness(Cycle((0, 1, 2)), (F(5), F(5), F(5))) == 0


def test_epsilon_witness_prefix_averages_randomized():
    rng = random.Random(23)
    for _ in range(200):
        k = rng.randint(1, 9)
        values = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k)]
        cyc = Cycle(tuple(range(k)))
        rot = epsilon_witness(cyc, values)
        mean = F(sum(values)) / k
        rotated = values[rot:] + values[:rot]
        running = F(0)
        for n in range(4 * k):
            running += rotated[n % k]
            assert F(running) / (n + 1) >= mean


def test_epsilon_minimum_attained_within_four_periods():
    # periodicity: the infimum over all horizons equals the minimum over the
    # first four periods' worth of prefix averages
    rng = random.Random(28)
    for _ in range(80):
        k = rng.randint(1, 8)
        values = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k)]
        rot = epsilon_witness(Cycle(tuple(range(k))), values)
        rotated = values[rot:] + values[:rot]
        averages = []
        running = F(0)
        for n in range(12 * k):
            running += rotated[n % k]
            averages.append(F(running) / (n + 1))
        assert min(averages[: 4 * k]) == min(averages)


def test_maximizing_measures_examples():
    z4 = z4_system()
    everything = maximizing_measures(z4, (F(0),) * 4)
    # f == 0: all simple-cycle measures (4 two-cycles and the uniform 4-cycles)
    assert len(everything) == 5

    found = maximizing_measures(z4, indicator(4, 0))
    expected = sorted([
        (F(1, 2), F(1, 2), F(0), F(0)),
        (F(1, 2), F(0), F(0), F(1, 2)),
    ])
    assert [m.weights for m in found] == expected

    two_loops = FiniteMVSystem.make(2, [(0, 0), (1, 1)])
    only = maximizing_measures(two_loops, (F(3), F(5)))
    assert [m.weights for m in only] == [(F(0), F(1))]


def test_maximizing_measures_are_invariant_and_attain_alpha():
    for inst in make_instances(24, 50):
        alpha, _ = alpha_state(inst.system, inst.f)
        for vm in maximizing_measures(inst.system, inst.f):
            ok, _ = is_invariant(inst.system, vm)
            assert ok
            assert sum(w * v for w, v in zip(vm.weights, inst.f)) == alpha


def test_extreme_maximizing_measures_are_extreme_invariant():
    from mvergo.measures import convex_combination, extreme_invariant_measures

    for inst in make_instances(25, 40, max_states=6):
        maxima = [m.weights for m in maximizing_measures(inst.system, inst.f)]
        extremes = {m.weights for m in extreme_invariant_measures(inst.system)}
        for w in maxima:
            others = [o for o in maxima if o != w]
            if convex_combination(w, others) is None:  # extreme within the maximizers
                assert w in extremes


def test_max_mean_cycle_tie_breaking():
    # equal means: prefer the shorter cycle, then the lexicographically
    # smaller state sequence
    s = FiniteMVSystem.make(3, [(0, 1), (1, 0), (2, 2)])
    f = (F(1, 2), F(1, 2), F(1, 2))
    _, cyc = max_mean_cycle(s, lift_function(f, s))
    assert cyc.states == (2,)  # the self-loop is shorter than the 2-cycle

    s2 = FiniteMVSystem.make(4, [(0, 1), (1, 0), (0, 3), (3, 0), (2, 2)])
    f2 = (F(1), F(1), F(0), F(1))
    _, cyc2 = max_mean_cycle(s2, lift_function(f2, s2))
    assert cyc2.states == (0, 1)  # ties at length 2 resolve lexicographically


def test_maximizing_measures_pushforward_under_graph_lift():
    # maximizing measures of the edge system project onto those of the base
    # system by summing each edge-state's weight onto its tail
    for inst in make_instances(29, 60, max_states=6):
        base = {m.weights for m in maximizing_measures(inst.system, inst.f)}
        lifted_sys = graph_system(inst.system)
        f_hat = lift_function(inst.f, inst.system)
        pushed = set()
        for m in maximizing_measures(lifted_sys, f_hat):
            vec = [F(0)] * inst.system.n_states
            for eid, w in enumerate(m.weights):
                vec[inst.system.edges[eid][0]] += w
            pushed.add(tuple(vec))
        assert pushed == base


def test_graph_lift_alpha_and_cycle_correspondence():
    for inst in make_instances(26, 80):
        lifted = graph_system(inst.system)
        f_hat = lift_function(inst.f, inst.system)
        alpha, cycle = alpha_state(inst.system, inst.f)
        alpha_hat, cycle_hat = alpha_state(lifted, f_hat)
        assert alpha == alpha_hat
        tails = tuple(inst.system.edges[e][0] for e in cycle_hat.states)
        k = len(tails)
        assert min(tails[r:] + tails[:r] for r in range(k)) == cycle.states


def test_float_karp_agrees_with_exact():
    rng = random.Random(27)
    for inst in make_instances(27, 40):
        w_exact = lift_function(inst.f, inst.system)
        value = max_mean_cycle_value(inst.system, w_exact)
        value_float = max_mean_cycle_value_float(
            inst.system, [float(x) for x in w_exact]
        )
        assert abs(float(value) - value_float) < 1e-9
    del rng


@pytest.mark.parametrize("grid", [64, 256, 1024])
def test_float_howard_agrees_with_karp_on_outer_grids(grid):
    for system in (doubling_map(), three_branch_doubling(), pq_correspondence(2, 3)):
        model = outer_grid_system(system, grid)
        for family in ("cos", "negdist"):
            for k in range(9):
                f = make_family(family, Fraction(k, 16), system.metric)
                w = f.values(model.centers)[model.tails]
                howard = max_mean_cycle_value_float(model.system, w)
                karp = karp_max_mean_cycle_value_float(model.system, w)
                assert abs(howard - karp) <= 1e-12, (system.name, family, k)


def test_float_howard_agrees_with_karp_with_sinks():
    rng = random.Random(28)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 30)
        sinks = set(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
        edges = {(t, rng.randrange(n)) for t in range(n) if t not in sinks
                 for _ in range(rng.randint(0, 3))}
        if not edges:
            continue
        s = FiniteMVSystem.make(n, edges)
        assert any(not succ for succ in s.successors)
        w = np.array([rng.uniform(-5, 5) for _ in s.edges])
        try:
            karp = karp_max_mean_cycle_value_float(s, w)
        except NoCycleError:
            with pytest.raises(NoCycleError):
                max_mean_cycle_value_float(s, w)
            continue
        assert abs(max_mean_cycle_value_float(s, w) - karp) <= 1e-12
        checked += 1
    assert checked > 100


def test_float_howard_result_dominates_a_near_optimal_policy():
    # the greedy policy keeps the loop 0 -> 0 (mean 1); the cycle 0 -> 1 -> 0
    # has mean 1.0004, a gain below the tolerance 1e-3 set by the weight 1e6
    # on the edge 2 -> 0, so the iteration stops there; the result must still
    # bound the true maximum
    s = FiniteMVSystem.make(3, [(0, 0), (0, 1), (1, 0), (2, 0)])
    w = np.array([1.0, 0.5, 1.5008, 1e6])
    assert 1.0004 <= max_mean_cycle_value_float(s, w) <= 1.0 + 1e-3


def test_float_howard_acyclic_raises():
    chain = FiniteMVSystem.make(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    with pytest.raises(NoCycleError):
        max_mean_cycle_value_float(chain, np.zeros(4))


def test_float_howard_iteration_limit(monkeypatch):
    monkeypatch.setattr(mea_mod, "HOWARD_ITERATION_LIMIT", 0)
    with pytest.raises(PolicyIterationError, match="did not converge in 0 iterations"):
        max_mean_cycle_value_float(z4_system(), np.ones(8))


def test_cycle_mean_bound_rejects_a_wrong_potential():
    # loops 0 -> 0 (weight 1) and 1 -> 1 (weight 2), joined both ways (weight 0)
    s = FiniteMVSystem.make(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    tails, heads = s.edge_array[:, 0], s.edge_array[:, 1]
    w = np.array([1.0, 0.0, 0.0, 2.0])
    bound = mea_mod._cycle_mean_bound
    assert bound(tails, heads, w, np.array([2.0, 2.0]), np.array([-2.0, 0.0])) == 2.0
    assert bound(tails, heads, w, np.array([1.0, 1.0]), np.zeros(2)) == 2.0
    assert bound(tails, heads, w, np.array([1.0, 2.0]), np.zeros(2)) == float("inf")


def test_mea_report_fields():
    z4 = z4_system()
    rep = mea_report(z4, indicator(4, 0), horizon=16)
    assert rep.alpha == F(1, 2)
    assert rep.maximizing_cycle.states == (0, 1)
    assert rep.delta_seq[0] == (0, F(1))  # best single state value
    assert len(rep.delta_seq) == 17
    assert rep.tolerance == 0
    deltas = dict(rep.delta_seq)
    for n in (4, 8, 16):
        assert abs(deltas[n] - rep.alpha) <= F(2 * 4 * 1, n + 1)


FIRST_30_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
                   73, 79, 83, 89, 97, 101, 103, 107, 109, 113)


def _delta_reference(system, f, horizon):
    """delta_n by a plain Fraction dynamic programme, NEG_INF for no path."""
    cur = [F(x) for x in f]
    out = [(0, max(cur))]
    for n in range(1, horizon + 1):
        nxt = [None] * system.n_states
        for t, h in system.edges:
            if cur[t] is not None and (nxt[h] is None or cur[t] + f[h] > nxt[h]):
                nxt[h] = cur[t] + f[h]
        cur = nxt
        best = max((x for x in cur if x is not None), default=None)
        out.append((n, NEG_INF if best is None else best / (n + 1)))
    return out


def test_exact_passes_with_a_common_denominator_beyond_64_bits():
    # values c/p over 12 of the first 30 primes: the scaled integers need more
    # than 64 bits, and every result must still be the exact rational
    rng = random.Random(41)
    for trial in range(8):
        n = 12
        edges = {(x, (x + 1) % n) for x in range(n)}
        while len(edges) < n + 6:
            edges.add((rng.randrange(n), rng.randrange(n)))
        if trial % 2:  # break the ring: some states may then lie on no cycle
            edges = {(t, h) for t, h in edges if not (t == n - 1 and h == 0)}
        s = FiniteMVSystem.make(n, edges)
        primes = rng.sample(FIRST_30_PRIMES[12:], n)
        f = tuple(F(rng.choice((-1, 1)) * rng.randint(1, 9), p) for p in primes)
        assert math.lcm(*(x.denominator for x in f)) > 2 ** 64
        alpha = alpha_state(s, f)[0]
        assert type(alpha) is F and alpha == brute_force_alpha(s, f)
        assert delta_sequence(s, f, 20) == _delta_reference(s, f, 20)
        res = subaction_for_state_function(s, f)
        assert res.beta == alpha and min(res.slack) == 0


README_DOCUMENT = ('{"n_states": 4, "edges": [[0, 1], [1, 0], [1, 2], [2, 1]], '
                   '"f_state": ["1", "0", "-3/7", "0.25"]}')


def test_readme_mixed_document_is_solved_exactly():
    # the one float value sits on a state without edges, so every lifted
    # weight is rational and every decision exact
    doc = loads_system(README_DOCUMENT)
    rep = mea_report(doc.system, doc.f_state)
    assert type(rep.alpha) is F and rep.alpha == F(1, 2)
    assert rep.tolerance == 0
    delta_0 = rep.delta_seq[0][1]
    assert type(delta_0) is F and delta_0 == 1
    res = subaction_for_state_function(doc.system, doc.f_state)
    assert res.phi == (F(0), F(1, 2), F(0), NEG_INF)
    assert all(type(p) is F for p in res.phi[:3])


def test_mea_report_tolerance_of_float_weights():
    rep = mea_report(z4_system(), (5.5,) * 4)
    assert rep.alpha == 5.5
    assert rep.tolerance == float_tolerance([5.5] * 8) > 1e-9


def test_delta_sequence_argument_checks():
    z4 = z4_system()
    with pytest.raises(ValueError, match="n_states"):
        delta_sequence(z4, indicator(3, 0), 4)
    with pytest.raises(ValueError, match="non-negative"):
        delta_sequence(z4, indicator(4, 0), -1)
