"""mea-engine: cycle means, finite horizons, witnesses, oracles."""

import math
import random
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mvergo.mea as mea_mod
from mvergo._numbers import NEG_INF, float_tolerance
from mvergo.io import load_system, loads_system
from mvergo.bounds import make_family, outer_grid_system
from mvergo.circle import doubling_map, pq_correspondence, three_branch_doubling
from mvergo.mea import (
    HowardSolver,
    NoCycleError,
    NoPathError,
    PolicyIterationError,
    PolicyIterationLimitError,
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
from mvergo.cli import main
from mvergo.io import dumps_system
from mvergo.measures import Cycle, is_invariant
from mvergo.subaction import subaction_for_state_function
from mvergo.system import (
    FiniteMVSystem,
    eventual_domain,
    eventual_domain_array,
    graph_system,
    lift_function,
)
from mvergo.verify import make_instances
from oracles import (
    dfs_simple_cycles,
    full_round_segment_maxima,
    heaviest_edge_policy,
    karp_max_mean_cycle_value,
    karp_max_mean_cycle_value_float,
    walk_evaluate_policy,
    z4_system,
)

F = Fraction
DATA = Path(__file__).resolve().parent / "data"


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
    with pytest.raises(NoCycleError):
        max_mean_cycle_value(chain, (0.5, 0.5))
    assert brute_force_alpha(chain, (F(1), F(2), F(3))) is NEG_INF


def test_max_mean_cycle_is_the_least_maximizing_cycle_under_ties():
    # f in {-1, 0, 1} makes many cycles share the maximum mean
    rng = random.Random(42)
    checked = 0
    while checked < 2000:
        n = rng.randint(1, 7)
        s = FiniteMVSystem.make(n, [(rng.randrange(n), rng.randrange(n))
                                    for _ in range(rng.randint(1, 3 * n))])
        cycles = dfs_simple_cycles(s)
        if not cycles:
            continue
        f = tuple(F(rng.randint(-1, 1)) for _ in range(n))
        means = [F(sum(f[x] for x in c), len(c)) for c in cycles]
        alpha, cyc = max_mean_cycle(s, lift_function(f, s))
        assert alpha == max(means)
        assert cyc.states == cycles[means.index(alpha)]  # least (length, states)
        checked += 1


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


NUMBER_FORMATS = {
    "rational": tuple,
    "float": lambda f: tuple(float(x) for x in f),
    "mixed": lambda f: tuple(float(x) if i % 2 else x for i, x in enumerate(f)),
}


def horizon_cases():
    """(system, rational f) for the horizon pass: the verify stream, whose
    systems are mostly reducible and every fifth single-valued; small
    systems whose rounds run out, never repeat or repeat at once; and ring
    graphs."""
    cases = [(inst.system, inst.f) for inst in make_instances(43, 60)]
    cases += [
        # acyclic: no segment has 3 steps
        (FiniteMVSystem.make(3, [(0, 1), (1, 2)]), (F(1), F(-2), F(3))),
        # loops of means 1 and 1/2 fed by 2: the rounds drift apart forever
        (FiniteMVSystem.make(3, [(0, 0), (1, 1), (2, 0), (2, 1)]), (F(1), F(1, 2), F(5))),
        # a source ahead of a loop: None at 0 from round 1, then a shift
        (FiniteMVSystem.make(2, [(0, 1), (1, 1)]), (F(7), F(-1, 3))),
        # sources at the maximum: round 1's key, read with None as 0, would
        # equal round 0's
        (FiniteMVSystem.make(3, [(0, 1), (1, 1), (2, 0), (2, 1)]), (F(-1), F(-2), F(-1))),
        # one loop per state at one value: round 1 repeats round 0
        (FiniteMVSystem.make(2, [(0, 0), (1, 1)]), (F(2), F(2))),
    ]
    rng = random.Random(44)
    cases += [ring_graph(rng, n, 4 * n) for n in (10, 64, 128)]
    return cases


@pytest.mark.parametrize("name", NUMBER_FORMATS)
def test_segment_maxima_match_every_round(name):
    # the pass that stops at a repeat gives the maxima and the D of the pass
    # that relaxes every round, with every float's bits
    copy = NUMBER_FORMATS[name]
    for system, f in horizon_cases():
        g = copy(f)
        for horizon in (0, 1, 2, system.n_states, 64, 130):
            got = mea_mod._segment_maxima(system, g, horizon)
            assert repr(got) == repr(full_round_segment_maxima(system, g, horizon))


@pytest.mark.parametrize("ring, rounds", [
    ("ring_n128_m512", 34), ("ring_n128_m512_float", 64), ("ring_n16_m32", 59),
])
def test_segment_maxima_stop_at_the_first_repeat(monkeypatch, ring, rounds):
    # the rational ring's round 34 repeats an earlier round up to a shift,
    # and the 16-state ring's round 59 its round 55; the float ring, the
    # same graph with f / 7 as decimals, relaxes all 64 rounds
    doc = load_system(DATA / ring / "input.json")
    relax, calls = mea_mod._relax, []

    def counting(*args):
        calls.append(1)
        relax(*args)

    monkeypatch.setattr(mea_mod, "_relax", counting)
    got = mea_mod._segment_maxima(doc.system, doc.f_state, 64)
    assert len(calls) == rounds
    assert repr(got) == repr(full_round_segment_maxima(doc.system, doc.f_state, 64))


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


def ring_graph(rng, n, m):
    """A ring through a random permutation of n states plus uniform extra
    edges up to m distinct edges, and a state function p/q with p in
    [-20, 20] and q in [1, 10]."""
    perm = rng.sample(range(n), n)
    edges = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    while len(edges) < m:
        edges.add((rng.randrange(n), rng.randrange(n)))
    f = tuple(F(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(n))
    return FiniteMVSystem.make(n, edges), f


def test_exact_howard_matches_karp_and_brute_force_on_the_acceptance_suite():
    # the 1000 systems of the acceptance suite (test_acceptance.py)
    for inst in make_instances(2026, 1000, max_states=8):
        w = lift_function(inst.f, inst.system)
        value = max_mean_cycle_value(inst.system, w)
        assert value == karp_max_mean_cycle_value(inst.system, w)
        assert value == brute_force_alpha(inst.system, inst.f)


@pytest.mark.parametrize("n", [10, 64, 200, 500])
def test_exact_howard_matches_karp_on_ring_graphs(n):
    rng = random.Random(n)
    for _ in range(1 if n == 500 else 3):
        s, f = ring_graph(rng, n, 4 * n)
        w = lift_function(f, s)
        value = max_mean_cycle_value(s, w)
        assert type(value) is F and value == karp_max_mean_cycle_value(s, w)
        if n <= 12:
            assert value == brute_force_alpha(s, f)


def test_exact_howard_rounds_the_exact_maximum_of_float_weights():
    # float weights are solved as their exact binary rationals; f / 7 as a
    # float makes the cycle sums inexact, so float arithmetic could differ
    rng = random.Random(30)
    cases = [(inst.system, [float(x / 7) for x in inst.f]) for inst in make_instances(30, 300)]
    cases += [(s, [float(x) / 3 for x in f]) for s, f in (ring_graph(rng, 64, 256) for _ in range(3))]
    # exponents from -300 to 3: the weights' common denominator nears 2^1050
    cases += [(s, wide_float_function(rng, s.n_states)) for s, _f in
              (ring_graph(rng, 64, 256) for _ in range(3))]
    for s, f in cases:
        w = lift_function(f, s)
        value = max_mean_cycle_value(s, w)
        assert type(value) is float
        assert value == float(karp_max_mean_cycle_value(s, w))


def test_exact_howard_ties_policy_cycles_of_lengths_one_two_and_three(monkeypatch):
    # the loop at 0 and the cycles 1 -> 2 -> 1 and 3 -> 4 -> 5 -> 3 all have
    # mean 1, and the start (each state's best two-step walk) holds all
    # three, so eta and v run over L = lcm(1, 2, 3) = 6
    s = FiniteMVSystem.make(6, [(0, 0), (0, 1), (1, 2), (2, 1), (2, 3), (3, 4), (4, 5),
                                (5, 0), (5, 3)])
    w = tuple(F(x) for x in (1, -5, 0, 2, -5, 3, 0, -5, 0))
    scales = []
    evaluate = mea_mod._evaluate_policy_exact

    def recording(*args):
        eta, v, scale = evaluate(*args)
        scales.append(scale)
        return eta, v, scale

    monkeypatch.setattr(mea_mod, "_evaluate_policy_exact", recording)
    assert max_mean_cycle_value(s, w) == 1 == karp_max_mean_cycle_value(s, w)
    assert scales == [6]
    assert mea_mod.tight_edges(s, w, F(1)) == [0, 2, 3, 5, 6, 8]
    assert max_mean_cycle(s, w) == (1, Cycle((0,)))


def test_exact_howard_ignores_states_off_the_eventual_domain():
    # 0 is a source, 3 a sink and 4 feeds the sink: only 1 <-> 2 lies on a
    # cycle, and the heavy edges into and out of it lead nowhere
    s = FiniteMVSystem.make(5, [(0, 1), (1, 2), (2, 1), (2, 3), (4, 3)])
    w = (F(100), F(1), F(2), F(50), F(70))
    assert eventual_domain(s) == {1, 2}
    assert max_mean_cycle_value(s, w) == F(3, 2) == karp_max_mean_cycle_value(s, w)
    assert max_mean_cycle_value(s, [float(x) for x in w]) == 1.5


def test_exact_howard_iteration_limit(monkeypatch, tmp_path, capsys):
    # the start looks one step ahead: from 0, the edge to 1 (3 + 10) beats
    # the loop at 0 (3 + 3), so the first policy runs into the loop at 2 of
    # mean -100; the loop at 0 is better, so a second iteration is needed
    s = FiniteMVSystem.make(3, [(0, 0), (0, 1), (1, 2), (2, 2)])
    f = (F(3), F(10), F(-100))
    assert alpha_state(s, f)[0] == 3
    monkeypatch.setattr(mea_mod, "HOWARD_ITERATION_LIMIT", 1)
    with pytest.raises(PolicyIterationLimitError, match="did not converge in 1 iterations"):
        max_mean_cycle_value(s, lift_function(f, s))
    path = tmp_path / "lure.json"
    path.write_text(dumps_system(s, f_state=f))
    assert main(["mea", "--input", str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(
        "error: input too large: Howard policy iteration did not converge in 1 iterations")
    assert not (tmp_path / "o").exists()


def test_exact_howard_lookahead_start_saves_evaluations(monkeypatch):
    # on a lifted state function every out-edge of a state weighs the same,
    # so the heaviest-edge start takes each state's first edge; the best
    # two-step walk starts closer.  Same values, fewer policy evaluations
    cases = [ring_graph(random.Random(seed), 64, 256) for seed in range(12)]
    evaluate, evaluations = mea_mod._evaluate_policy_exact, []

    def counting(*args):
        evaluations.append(1)
        return evaluate(*args)

    def solve_all():
        del evaluations[:]
        values = [max_mean_cycle_value(s, lift_function(f, s)) for s, f in cases]
        return values, len(evaluations)

    monkeypatch.setattr(mea_mod, "_evaluate_policy_exact", counting)
    values, lookahead = solve_all()
    monkeypatch.setattr(mea_mod, "_lookahead_policy", heaviest_edge_policy)
    heaviest_values, heaviest = solve_all()
    assert values == heaviest_values
    assert lookahead < heaviest
    assert (lookahead, heaviest) == (72, 99)


def test_exact_certificate_rejects_wrong_values():
    # loops 0 -> 0 (weight 1) and 1 -> 1 (weight 2), joined both ways (weight 0)
    live, outs, head, w = [0, 1], [[0, 1], [2, 3]], [0, 1, 0, 1], [1, 0, 0, 2]
    certified = mea_mod._certified
    assert certified(live, outs, head, w, [2, 2], [-2, 0], 1)
    assert certified(live, outs, head, w, [4, 4], [-4, 0], 2)  # the same over L = 2
    assert not certified(live, outs, head, w, [1, 1], [0, 0], 1)  # the loop at 1 gains
    assert not certified(live, outs, head, w, [1, 2], [0, 0], 1)  # eta rises along 0 -> 1


def wide_float_function(rng, n):
    """A float state function with half its values in [1, 1000] and half in
    [1e-300, 9e-300]."""
    return [rng.uniform(1, 1e3) if rng.random() < 0.5 else rng.uniform(1, 9) * 1e-300
            for _ in range(n)]


@pytest.mark.parametrize("kind", ["fraction", "float"])
def test_mea_report_on_5000_states_within_a_time_bound(kind):
    # Karp's walk table alone would hold 25 million entries here; the whole
    # report took 0.9-1.6 s with f as fractions, 0.8 s with f / 7 as floats,
    # on a 2-core x86 host
    s, f = ring_graph(random.Random(5000), 5000, 20000)
    if kind == "float":
        f = tuple(float(x) / 7 for x in f)
    start = time.perf_counter()
    rep = mea_report(s, f)
    elapsed = time.perf_counter() - start
    cycle = rep.maximizing_cycle.states
    mean = F(sum([F(f[x]) for x in cycle]), len(cycle))
    assert rep.alpha == (mean if kind == "fraction" else float(mean))
    assert rep.delta_seq[-1][1] >= rep.alpha
    assert elapsed < 60, f"mea_report took {elapsed:.1f} s"


def test_exact_howard_on_wide_float_exponents_within_a_time_bound():
    # the solve runs on Python ints over a denominator near 2^1050; it took
    # 0.35 s, against 0.23 s for f / 7 as floats, on a 2-core x86 host
    s, _f = ring_graph(random.Random(5000), 5000, 20000)
    w = lift_function(wide_float_function(random.Random(1), 5000), s)
    start = time.perf_counter()
    value = max_mean_cycle_value(s, w)
    elapsed = time.perf_counter() - start
    assert value == float(max_mean_cycle_value(s, [F(x) for x in w]))
    assert elapsed < 30, f"the solve took {elapsed:.1f} s"


def test_tight_edges_settle_on_wide_float_exponents(monkeypatch):
    # rounding leaves a best cycle's reduced sum a little positive, so a
    # potential that waits for a round to change nothing runs all 5000
    # rounds here; the fixpoint freezes within tie_tolerance in 22
    s, _f = ring_graph(random.Random(5000), 5000, 20000)
    w = lift_function(wide_float_function(random.Random(1), 5000), s)
    alpha = max_mean_cycle_value(s, w)
    rounds = []
    relax = mea_mod._relax

    def counting(*args):
        rounds.append(1)
        return relax(*args)

    monkeypatch.setattr(mea_mod, "_relax", counting)
    tight = mea_mod.tight_edges(s, w, alpha)
    assert len(rounds) <= 50
    monkeypatch.undo()
    exact = [F(x) for x in w]
    assert tight == mea_mod.tight_edges(s, exact, max_mean_cycle_value(s, exact))


@pytest.mark.parametrize("grid", [64, 256, 1024])
def test_float_howard_agrees_with_karp_on_outer_grids(grid):
    for system in (doubling_map(), three_branch_doubling(), pq_correspondence(2, 3)):
        model = outer_grid_system(system, grid)
        for family in ("cos", "negdist"):
            for k in range(9):
                f = make_family(family, Fraction(k, 16), system.metric)
                w = model.weights(f)
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


def _random_chained_system(rng):
    """A random sparse system with chains of fresh states running into it
    and out of it, so that it has sources, sinks and long tails, its states
    shuffled."""
    n = rng.randint(1, 10)
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
    for _ in range(rng.randint(0, 4)):
        chain = list(range(n, n + rng.randint(1, 8)))
        n += len(chain)
        end = rng.randrange(chain[0])
        path = chain + [end] if rng.random() < 0.5 else [end] + chain
        edges.update(zip(path, path[1:]))
    label = list(range(n))
    rng.shuffle(label)
    return FiniteMVSystem.make(n, ((label[t], label[h]) for t, h in edges))


def test_howard_solver_keeps_exactly_the_eventual_domain():
    rng = random.Random(21)
    acyclic = trimmed = 0
    for _ in range(300):
        system = _random_chained_system(rng)
        live = sorted(eventual_domain(system))
        edges = system.edge_array
        assert eventual_domain_array(system.n_states, edges[:, 0], edges[:, 1]).tolist() == live
        solver = HowardSolver(system)
        alive = set(live)
        assert solver.keep.tolist() == [t in alive and h in alive for t, h in system.edges]
        assert len(solver.out) == len(live)
        trimmed += len(live) < system.n_states
        if not live:
            acyclic += 1
            with pytest.raises(NoCycleError):
                solver.solve(np.zeros(len(system.edges)))
    assert acyclic > 20 and trimmed > 200


def test_howard_solver_trims_a_long_path_in_linear_time():
    # 0 -> 1 -> ... -> n-1 runs into the 2-cycle n-2 <-> n-1; the trim
    # deletes one state of the path after another
    n = 100_000
    system = FiniteMVSystem.make(n, [(x, x + 1) for x in range(n - 1)] + [(n - 1, n - 2)])
    system.edge_array  # built before the clock starts
    start = time.perf_counter()
    solver = HowardSolver(system)
    assert time.perf_counter() - start < 1.0
    assert len(solver.out) == 2 and solver.keep.sum() == 2
    weights = np.arange(n, dtype=np.float64)  # the cycle's edges are n-2 and n-1
    assert solver.solve(weights) == n - 1.5


def _assert_policy_values_match_the_walk(succ, cost):
    eta, v = mea_mod._evaluate_policy(np.asarray(succ, dtype=np.int64),
                                      np.asarray(cost, dtype=np.float64))
    walk_eta, walk_v = walk_evaluate_policy(list(succ), list(cost))
    assert eta.tobytes() == walk_eta.tobytes()
    assert v.tobytes() == walk_v.tobytes()


def _random_policy(rng):
    """A random functional graph on shuffled labels: a few cycles, self-loops
    among them, and trees that hang off them at random or as one chain as
    deep as the states allow."""
    n = rng.randint(1, 80)
    placed, succ = [], [None] * n
    x = 0
    while x < n and (not placed or rng.random() < 0.4):
        cycle = list(range(x, min(n, x + rng.choice((1, 1, 2, 3, 7)))))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            succ[a] = b
        placed += cycle
        x += len(cycle)
    chain = rng.random() < 0.3
    for y in range(x, n):
        succ[y] = y - 1 if chain else rng.choice(placed)
        placed.append(y)
    label = list(range(n))
    rng.shuffle(label)
    shuffled = [0] * n
    for y in range(n):
        shuffled[label[y]] = label[succ[y]]
    cost = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-3, 3) for _ in range(n)]
    return shuffled, cost


def test_layered_policy_evaluation_matches_the_walk_bit_for_bit():
    rng = random.Random(24)
    for _ in range(400):
        _assert_policy_values_match_the_walk(*_random_policy(rng))
    # from 0 the walk meets the cycle 3 -> 2 -> 1 -> 3 at 3 and its least
    # state last
    _assert_policy_values_match_the_walk([3, 3, 1, 2], [0.1, 0.7, 0.3, 0.9])
    # one chain of depth n - 1 into a self-loop, labels shuffled
    n = 300
    label = list(range(n))
    rng.shuffle(label)
    succ = [0] * n
    for y in range(n):
        succ[label[y]] = label[min(y + 1, n - 1)]
    _assert_policy_values_match_the_walk(succ, [rng.uniform(-9, 9) for _ in range(n)])


def test_layered_policy_evaluation_matches_the_walk_on_a_sweep(monkeypatch, tmp_path):
    evaluate, seen = mea_mod._evaluate_policy, []

    def checked(succ, cost):
        eta, v = evaluate(succ, cost)
        walk_eta, walk_v = walk_evaluate_policy(succ.tolist(), cost.tolist())
        assert eta.tobytes() == walk_eta.tobytes() and v.tobytes() == walk_v.tobytes()
        seen.append(len(succ))
        return eta, v

    monkeypatch.setattr(mea_mod, "_evaluate_policy", checked)
    assert main(["sweep", "--f", "cos", "--theta-grid", "8", "--max-period", "10",
                 "--grid", "1024", "--out", str(tmp_path / "o")]) == 0
    assert len(seen) > 20


def test_layered_policy_evaluation_is_as_quiet_as_python_floats():
    # 0 -> 1 -> 2 -> 3, a loop at 3: v(1) overflows to inf, which Python
    # floats give without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_policy_values_match_the_walk([1, 2, 3, 3], [1.7e308] * 3 + [1.0])
        _assert_policy_values_match_the_walk([1, 2, 2], [math.inf, -math.inf, 1.0])
    eta, v = mea_mod._evaluate_policy(np.array([1, 2, 3, 3]), np.array([1.7e308] * 3 + [1.0]))
    assert v[0] == v[1] == math.inf


def test_howard_solver_evaluates_a_deep_policy_in_linear_time():
    # the ring 0 -> 1 -> ... -> n-1 -> 0 with a heavy loop at n-1: the policy
    # is one chain of depth n - 1, whose layers must each cost O(1) numpy calls
    n = 100_000
    system = FiniteMVSystem.make(n, [(x, (x + 1) % n) for x in range(n)] + [(n - 1, n - 1)])
    system.edge_array  # built before the clock starts
    weights = np.zeros(len(system.edges))
    weights[system.edges.index((n - 1, n - 1))] = 1e6
    start = time.perf_counter()
    assert HowardSolver(system).solve(weights) == 1e6
    assert time.perf_counter() - start < 2.0


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
