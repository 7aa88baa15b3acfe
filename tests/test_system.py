"""mv-core: systems, images, eventual domain, graph lift."""

import random

import pytest
from fractions import Fraction

from mvergo.system import (
    SIMPLE_CYCLE_LIMIT,
    FiniteMVSystem,
    TooManyCyclesError,
    eventual_domain,
    graph_system,
    induced_subsystem,
    inverse,
    iterate_image,
    lift_function,
    orbit_space_nonempty,
    simple_cycles,
)
from oracles import dfs_simple_cycles, identity_system, z4_system


def random_system(rng, max_states=8):
    n = rng.randint(1, max_states)
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
    return FiniteMVSystem.make(n, edges)


def test_edges_canonical_and_validated():
    s = FiniteMVSystem.make(3, [(2, 1), (0, 1), (2, 1), (1, 1)])
    assert s.edges == ((0, 1), (1, 1), (2, 1))
    with pytest.raises(ValueError):
        FiniteMVSystem(2, ((1, 0), (0, 1)))  # unsorted
    with pytest.raises(ValueError):
        FiniteMVSystem.make(2, [(0, 2)])


def test_inverse_examples():
    z4 = z4_system()
    assert inverse(z4) == z4  # symmetric relation
    ident = identity_system(3)
    assert inverse(ident) == ident
    s = FiniteMVSystem.make(2, [(0, 1)])
    assert inverse(s).edges == ((1, 0),)


def test_inverse_is_involution_randomized():
    rng = random.Random(1)
    for _ in range(50):
        s = random_system(rng)
        assert inverse(inverse(s)) == s


def test_iterate_image_examples():
    ident = identity_system(4)
    for n in (-3, 0, 1, 5):
        assert iterate_image(ident, {0, 2}, n) == frozenset({0, 2})
    z4 = z4_system()
    assert iterate_image(z4, {0}, 1) == frozenset({1, 3})
    assert iterate_image(z4, {0}, 2) == frozenset({0, 2})


def test_iterate_image_composes_and_is_monotone():
    rng = random.Random(2)
    for _ in range(30):
        s = random_system(rng)
        a = frozenset(x for x in range(s.n_states) if rng.random() < 0.4)
        b = a | frozenset(x for x in range(s.n_states) if rng.random() < 0.3)
        for n in range(4):
            step = iterate_image(s, iterate_image(s, a, n), 1)
            assert iterate_image(s, a, n + 1) == step
            assert iterate_image(s, a, n) <= iterate_image(s, b, n)


def test_eventual_domain_examples():
    assert eventual_domain(identity_system(5)) == frozenset(range(5))
    s = FiniteMVSystem.make(2, [(0, 1)])
    assert eventual_domain(s) == frozenset()
    s2 = FiniteMVSystem.make(3, [(0, 1), (1, 0), (2, 0)])
    assert eventual_domain(s2) == frozenset({0, 1})


def test_eventual_domain_symmetry_and_nonempty():
    rng = random.Random(3)
    for _ in range(40):
        s = random_system(rng)
        dom = eventual_domain(s)
        assert dom == eventual_domain(inverse(s))
        assert orbit_space_nonempty(s) == bool(dom)
        # nonempty iff a directed cycle exists
        assert bool(dom) == bool(simple_cycles(s))


def test_eventual_domain_long_reversed_paths_and_ring():
    # a ring 0 -> 1 -> 2 -> 0, a path n-1 -> ... -> 3 -> 0 running into it
    # against the state order, and a path 2 -> n -> ... -> 2n-4 out of it
    n = 2000
    ring = [(0, 1), (1, 2), (2, 0)]
    into = [(x + 1, x) for x in range(3, n - 1)] + [(3, 0)]
    out_of = [(2, n)] + [(x, x + 1) for x in range(n, 2 * n - 4)]
    s = FiniteMVSystem.make(2 * n - 3, ring + into + out_of)
    dom = eventual_domain(s)
    assert dom == frozenset({0, 1, 2})
    assert dom == eventual_domain(inverse(s))
    assert orbit_space_nonempty(s)
    assert bool(dom) == bool(simple_cycles(s))


def test_orbit_space_nonempty_examples():
    assert orbit_space_nonempty(FiniteMVSystem.make(1, [(0, 0)]))
    assert not orbit_space_nonempty(FiniteMVSystem.make(3, [(0, 1), (1, 2)]))
    assert orbit_space_nonempty(z4_system())


def test_graph_system_examples():
    loop = FiniteMVSystem.make(1, [(0, 0)])
    assert graph_system(loop) == loop
    two = FiniteMVSystem.make(2, [(0, 1), (1, 0)])
    g = graph_system(two)
    assert g.n_states == 2 and g.edges == ((0, 1), (1, 0))
    gz = graph_system(z4_system())
    assert gz.n_states == 8
    assert len(gz.edges) == 16


def test_graph_system_cycle_structure():
    # every simple cycle of s lifts to exactly one simple edge-cycle of the
    # same length; the lift also has cycles for edge-disjoint closed walks
    # (vertex repeats allowed), so only containment and the minimum length
    # are compared, plus exact equality on vertex-disjoint-cycle systems
    rng = random.Random(4)
    for _ in range(30):
        s = random_system(rng, max_states=6)
        dom = eventual_domain(s)
        if not dom:
            continue
        g = graph_system(s)
        base = simple_cycles(s)
        lifted = simple_cycles(g)
        lifted_as_edge_sets = {frozenset(c) for c in lifted}
        for cyc in base:
            k = len(cyc)
            ids = frozenset(
                s.edge_index[(cyc[i], cyc[(i + 1) % k])] for i in range(k)
            )
            assert ids in lifted_as_edge_sets
        assert min(len(c) for c in base) == min(len(c) for c in lifted)
        used = [x for c in base for x in c]
        if len(used) == len(set(used)):  # vertex-disjoint cycles: exact match
            assert sorted(len(c) for c in base) == sorted(len(c) for c in lifted)


def test_lift_function_examples():
    z4 = z4_system()
    const = lift_function([Fraction(7)] * 4, z4)
    assert all(v == 7 for v in const)
    ind = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    lifted = lift_function(ind, z4)
    hot = {z4.edges[i] for i, v in enumerate(lifted) if v == 1}
    assert hot == {(0, 1), (0, 3)}
    f = [Fraction(i, 3) for i in range(4)]
    lf = lift_function(f, z4)
    for x in range(4):
        out_sum = sum(lf[i] for i in z4.out_edge_ids[x])
        assert out_sum == len(z4.out_edge_ids[x]) * f[x]


def test_induced_subsystem_relabels_densely():
    s = FiniteMVSystem.make(5, [(0, 2), (2, 4), (4, 0), (1, 3)])
    sub, relabel = induced_subsystem(s, {0, 2, 4})
    assert relabel == {0: 0, 2: 1, 4: 2}
    assert sub.edges == ((0, 1), (1, 2), (2, 0))
    with pytest.raises(ValueError):
        induced_subsystem(s, set())


def test_simple_cycles_against_dfs_oracle():
    rng = random.Random(5)
    for _ in range(40):
        s = random_system(rng, max_states=7)
        assert simple_cycles(s) == dfs_simple_cycles(s)
    assert len(simple_cycles(z4_system())) == 6


def _complete_digraph(n):
    return FiniteMVSystem.make(n, [(a, b) for a in range(n) for b in range(n)])


def test_simple_cycles_limit_fails_fast_on_complete_digraph():
    # with loops, K_n has sum_k C(n, k) (k - 1)! simple cycles: 16072 for
    # n = 8, 125673 for n = 9 and more than 29! for n = 30
    assert len(simple_cycles(_complete_digraph(8))) == 16072
    for n in (9, 30):
        with pytest.raises(TooManyCyclesError) as info:
            simple_cycles(_complete_digraph(n))
        assert info.value.limit == SIMPLE_CYCLE_LIMIT
        assert str(SIMPLE_CYCLE_LIMIT) in str(info.value)


def test_simple_cycles_long_ring_without_recursion():
    n = 1200
    ring = FiniteMVSystem.make(n, [(x, (x + 1) % n) for x in range(n)])
    assert simple_cycles(ring) == [tuple(range(n))]
