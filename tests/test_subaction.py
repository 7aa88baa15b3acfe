"""subaction: potentials, corrections, slack verification."""

import random
from fractions import Fraction

import pytest

from mvergo._numbers import NEG_INF
from mvergo.mea import NoCycleError, alpha_state, max_mean_cycle
from mvergo.subaction import (
    PositiveCycleError,
    ViolatedEdgeError,
    compute_phi,
    compute_v,
    subaction_for_state_function,
    verify_mane,
)
from mvergo.system import FiniteMVSystem, lift_function, simple_cycles
from mvergo.verify import make_instances
from oracles import phi_backward_oracle, z4_system

F = Fraction


def two_state_ab():
    # edges a->a (f=0), a->b (f=1), b->a (f=1): beta = 1
    s = FiniteMVSystem.make(2, [(0, 0), (0, 1), (1, 0)])
    f = (F(0), F(1), F(1))
    return s, f


def two_state_pq():
    # edges p->q (f=1), q->q (f=0): beta = 0, p has no predecessor
    s = FiniteMVSystem.make(2, [(0, 1), (1, 1)])
    f = (F(1), F(0))
    return s, f


def test_compute_phi_constant():
    z4 = z4_system()
    f = tuple(F(3) for _ in z4.edges)
    phi = compute_phi(z4, f, F(3))
    assert phi == (F(0),) * 4


def test_compute_phi_two_state_examples():
    s, f = two_state_ab()
    phi = compute_phi(s, f, F(1))
    assert phi == (F(0), F(0))

    s2, f2 = two_state_pq()
    phi2 = compute_phi(s2, f2, F(0))
    assert phi2[0] is NEG_INF
    assert phi2[1] == F(1)


def test_compute_phi_matches_backward_oracle():
    for inst in make_instances(31, 60, max_states=5):
        f_edge = lift_function(inst.f, inst.system)
        beta, _ = max_mean_cycle(inst.system, f_edge)
        phi = compute_phi(inst.system, f_edge, beta)
        oracle = phi_backward_oracle(inst.system, f_edge, beta)
        for a, b in zip(phi, oracle):
            if b is None:
                assert a is NEG_INF
            else:
                assert a == b


def test_compute_phi_positive_cycle_detection():
    s, f = two_state_ab()
    with pytest.raises(PositiveCycleError):
        compute_phi(s, f, F(1, 2))  # below the true maximum average 1


def test_compute_phi_neg_inf_exactly_on_predecessor_free_states():
    for inst in make_instances(32, 60):
        f_edge = lift_function(inst.f, inst.system)
        beta, _ = max_mean_cycle(inst.system, f_edge)
        phi = compute_phi(inst.system, f_edge, beta)
        for x in range(inst.system.n_states):
            assert (phi[x] is NEG_INF) == (len(inst.system.predecessors[x]) == 0)


def test_compute_v_examples():
    z4 = z4_system()
    f = tuple(F(5) for _ in z4.edges)
    phi = compute_phi(z4, f, F(5))
    assert compute_v(phi, f, F(5)) == (F(0),) * 4

    s2, f2 = two_state_pq()
    phi2 = compute_phi(s2, f2, F(0))
    v2 = compute_v(phi2, f2, F(0))
    assert v2 == (F(-2), F(1))  # -M - max f + beta = -1 - 1 + 0 on the -inf part

    s, f = two_state_ab()
    phi = compute_phi(s, f, F(1))
    assert compute_v(phi, f, F(1)) == phi  # no -inf states: v = phi


def test_verify_mane_examples():
    z4 = z4_system()
    f = tuple(F(2) for _ in z4.edges)
    res = verify_mane(z4, f, (F(0),) * 4, F(2))
    assert res.slack == (F(0),) * 8
    assert res.tight_edge_ids == tuple(range(8))
    assert res.worst_edge_id == 0  # the first of eight least slacks

    s, fe = two_state_ab()
    res = verify_mane(s, fe, (F(0), F(0)), F(1))
    assert res.slack == (F(1), F(0), F(0))
    assert res.worst_edge_id == 1

    s2, f2 = two_state_pq()
    phi2 = compute_phi(s2, f2, F(0))
    v2 = compute_v(phi2, f2, F(0))
    res2 = verify_mane(s2, f2, v2, F(0), phi=phi2)
    assert res2.slack == (F(2), F(0))
    assert res2.phi == phi2
    assert res2.worst_edge_id == 1


def test_verify_mane_raises_on_violation():
    s, fe = two_state_ab()
    with pytest.raises(ViolatedEdgeError):
        verify_mane(s, fe, (F(0), F(0)), F(1, 2))
    # float f: slacks within tie_tolerance(f) pass and count as tight
    two_cycle = FiniteMVSystem.make(2, [(0, 1), (1, 0)])
    res = verify_mane(two_cycle, (1.0, 1.0), (0.0, 1e-12), 1.0)
    assert res.tight_edge_ids == (0, 1)
    with pytest.raises(ViolatedEdgeError):
        verify_mane(two_cycle, (1.0, 1.0), (0.0, 1e-6), 1.0)


def test_verify_mane_certifies_beta_without_a_solver(monkeypatch):
    import mvergo.mea
    import mvergo.subaction

    def solver(*args):
        raise AssertionError("verify_mane called a max-mean-cycle solver")

    for module in (mvergo.mea, mvergo.subaction):
        for name in ("max_mean_cycle", "max_mean_cycle_value"):
            monkeypatch.setattr(module, name, solver, raising=False)
    z4 = z4_system()
    f = lift_function((F(1), F(0), F(0), F(0)), z4)
    # slack 1 - f >= 0 everywhere, but only the edges out of 0 are tight
    with pytest.raises(ValueError, match="no cycle of tight edges"):
        verify_mane(z4, f, (F(0),) * 4, F(1))
    res = verify_mane(z4, f, (F(0), F(1, 2), F(0), F(1, 2)), F(1, 2))
    assert min(res.slack) == 0
    chain = FiniteMVSystem.make(3, [(0, 1), (1, 2)])
    with pytest.raises(NoCycleError):
        verify_mane(chain, (F(1), F(0)), (F(0),) * 3, F(1))


def test_subaction_z4_indicator():
    z4 = z4_system()
    f = (F(1), F(0), F(0), F(0))
    res = subaction_for_state_function(z4, f)
    assert res.beta == F(1, 2)
    assert res.phi == (F(0), F(1, 2), F(0), F(1, 2))
    assert min(res.slack) == F(0)
    tight_pairs = {z4.edges[k] for k in res.tight_edge_ids}
    assert {(0, 1), (1, 0)} <= tight_pairs  # the maximizing cycle is tight


def test_subaction_zero_function():
    z4 = z4_system()
    res = subaction_for_state_function(z4, (F(0),) * 4)
    assert res.beta == 0
    assert res.v == (F(0),) * 4
    assert res.slack == (F(0),) * 8


def test_subaction_single_valued_per_state():
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(2, 8)
        s = FiniteMVSystem.make(n, [(x, rng.randrange(n)) for x in range(n)])
        f = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        res = subaction_for_state_function(s, f)
        for x in range(n):
            y = s.successors[x][0]
            assert f[x] + res.v[x] - res.v[y] <= res.beta


def test_subaction_soundness_and_tight_cycles():
    for inst in make_instances(34, 80):
        res = subaction_for_state_function(inst.system, inst.f)
        assert min(res.slack) >= 0
        # the canonical maximizing cycle is entirely tight
        alpha, cycle = alpha_state(inst.system, inst.f)
        assert alpha == res.beta
        tight = {inst.system.edges[k] for k in res.tight_edge_ids}
        for pair in cycle.edge_pairs():
            assert pair in tight
        # any all-tight cycle has mean exactly beta
        tight_sys = FiniteMVSystem.make(
            inst.system.n_states, (inst.system.edges[k] for k in res.tight_edge_ids)
        )
        for states in simple_cycles(tight_sys):
            mean = F(sum(inst.f[x] for x in states)) / len(states)
            assert mean == res.beta


def test_subaction_float_inputs():
    z4 = z4_system()
    res = subaction_for_state_function(z4, (1.0, 0.0, 0.0, 0.0))
    assert abs(res.beta - 0.5) < 1e-12
    assert min(res.slack) >= -1e-9
    for a, b in zip(res.phi, (0.0, 0.5, 0.0, 0.5)):
        assert abs(a - b) < 1e-9


def test_phi_edge_inequality():
    # f + phi(tail) - phi(head) <= beta wherever phi(tail) is finite
    for inst in make_instances(35, 60):
        f_edge = lift_function(inst.f, inst.system)
        beta, _ = max_mean_cycle(inst.system, f_edge)
        phi = compute_phi(inst.system, f_edge, beta)
        for k, (t, h) in enumerate(inst.system.edges):
            if phi[t] is NEG_INF:
                continue
            assert f_edge[k] + phi[t] - phi[h] <= beta


def test_phi_monotone_rounds():
    # Bellman iterates only ever increase and freeze within n_states rounds
    for inst in make_instances(36, 30, max_states=6):
        s = inst.system
        f_edge = lift_function(inst.f, s)
        beta, _ = max_mean_cycle(s, f_edge)
        reduced = [w - beta for w in f_edge]
        cur = [NEG_INF] * s.n_states
        snapshots = [tuple(cur)]
        for _ in range(s.n_states + 1):
            nxt = [NEG_INF] * s.n_states
            for k, (t, h) in enumerate(s.edges):
                base = cur[t]
                if base is NEG_INF or base < 0:
                    base = F(0)
                cand = base + reduced[k]
                if nxt[h] is NEG_INF or cand > nxt[h]:
                    nxt[h] = cand
            for a, b in zip(cur, nxt):
                assert a is NEG_INF or b >= a
            snapshots.append(tuple(nxt))
            cur = nxt
        assert snapshots[s.n_states] == snapshots[s.n_states + 1]
        assert tuple(cur) == compute_phi(s, f_edge, beta)
