"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line per
criterion (timings included).  The randomized suite of 1000 finite systems is
generated once from a fixed seed and shared by criteria 1, 3 and 4.
"""

import time
from fractions import Fraction

import pytest

from mvergo.bounds import barycentre_hull, theta_sweep
from mvergo.circle import (
    Branch,
    NotExpandingError,
    PiecewiseAffineMVSystem,
    doubling_map,
    expansion_certificate,
    is_sturmian,
    pq_correspondence,
    three_branch_doubling,
)
from mvergo.cli import main
from mvergo.mea import alpha_state, brute_force_alpha, delta_sequence, epsilon_witness
from mvergo.measures import VertexMeasure, extreme_invariant_measures, is_invariant
from mvergo.subaction import subaction_for_state_function
from mvergo.system import FiniteMVSystem, graph_system, lift_function, simple_cycles
from mvergo.verify import make_instances

F = Fraction

SUITE_SEED = 2026
SUITE_SIZE = 1000


@pytest.fixture(scope="module")
def suite():
    return make_instances(SUITE_SEED, SUITE_SIZE, max_states=8)


@pytest.fixture(scope="module")
def suite_alphas(suite):
    return [alpha_state(inst.system, inst.f) for inst in suite]


def _report(number: int, message: str, started: float):
    print(f"PASS criterion {number}: {message} [{time.monotonic() - started:.1f}s]")


def test_criterion_1_equivalence_suite(suite, suite_alphas):
    started = time.monotonic()
    horizons = (8, 16, 32, 64)
    for inst, (alpha, cycle) in zip(suite, suite_alphas):
        assert alpha == brute_force_alpha(inst.system, inst.f)

        bound_scale = 2 * inst.system.n_states * max(abs(v) for v in inst.f)
        deltas = dict(delta_sequence(inst.system, inst.f, max(horizons)))
        for n in horizons:
            assert abs(deltas[n] - alpha) * (n + 1) <= bound_scale

        rot = epsilon_witness(cycle, inst.f)
        k = len(cycle)
        states = cycle.states[rot:] + cycle.states[:rot]
        running = F(0)
        for n in range(4 * k):
            running += inst.f[states[n % k]]
            assert running / (n + 1) >= alpha
    elapsed = time.monotonic() - started
    assert elapsed <= 120, f"criterion 1 exceeded its runtime budget: {elapsed:.1f}s"
    _report(1, f"alpha == brute force, delta bounds, epsilon witness on {SUITE_SIZE} systems", started)


def test_criterion_2_z4_extreme_measures():
    started = time.monotonic()
    z4 = FiniteMVSystem.make(
        4, [(x, (x + 1) % 4) for x in range(4)] + [(x, (x - 1) % 4) for x in range(4)]
    )
    extremes = extreme_invariant_measures(z4)
    expected = sorted(
        tuple(F(1, 2) if i in (x, (x + 1) % 4) else F(0) for i in range(4))
        for x in range(4)
    )
    assert [e.weights for e in extremes] == expected
    uniform = VertexMeasure.make((F(1, 4),) * 4)
    ok, witness = is_invariant(z4, uniform)
    assert ok and witness is not None
    assert uniform.weights not in {e.weights for e in extremes}
    _report(2, "Z/4Z extreme measures are exactly the four pair measures; uniform invariant non-extreme", started)


def test_criterion_3_graph_lift(suite, suite_alphas):
    started = time.monotonic()
    for inst, (alpha, cycle) in zip(suite, suite_alphas):
        lifted = graph_system(inst.system)
        f_hat = lift_function(inst.f, inst.system)
        alpha_hat, cycle_hat = alpha_state(lifted, f_hat)
        assert alpha == alpha_hat
        tails = tuple(inst.system.edges[e][0] for e in cycle_hat.states)
        k = len(tails)
        assert min(tails[r:] + tails[:r] for r in range(k)) == cycle.states
    _report(3, f"alpha and maximizing cycles transport to the edge system on {SUITE_SIZE} systems", started)


def test_criterion_4_mane(suite, suite_alphas):
    started = time.monotonic()
    single_valued_seen = 0
    for inst, (alpha, cycle) in zip(suite, suite_alphas):
        res = subaction_for_state_function(inst.system, inst.f)
        assert res.beta == alpha
        assert min(res.slack) >= 0  # tol = 0, exact rationals
        tight = set(res.tight_edge_ids)
        for pair in cycle.edge_pairs():
            assert inst.system.edge_index[pair] in tight
        tight_sys = FiniteMVSystem.make(
            inst.system.n_states, (inst.system.edges[k] for k in tight)
        )
        for states in simple_cycles(tight_sys):
            assert F(sum(inst.f[x] for x in states)) / len(states) == res.beta
        if all(len(s) == 1 for s in inst.system.successors):
            single_valued_seen += 1
            for x in range(inst.system.n_states):
                y = inst.system.successors[x][0]
                assert inst.f[x] + res.v[x] - res.v[y] <= res.beta
    assert single_valued_seen >= 100
    _report(4, f"subaction inequality exact on {SUITE_SIZE} systems ({single_valued_seen} single-valued)", started)


def test_criterion_5_figure1_sweep():
    started = time.monotonic()
    thetas = [F(k, 256) for k in range(129)]
    systems = [doubling_map(), three_branch_doubling()]
    rows_d, rows_t = theta_sweep(systems, "cos", thetas, max_period=14, grid_n=2048)
    assert rows_d[0].beta_lower == rows_t[0].beta_lower == 1.0
    gaps = []
    for rd, rt in zip(rows_d, rows_t):
        assert rt.beta_lower >= rd.beta_lower
        gaps.append(rd.beta_upper - rd.beta_lower)
        gaps.append(rt.beta_upper - rt.beta_lower)
    within = sum(1 for g in gaps if g <= 0.02)
    share = within / len(gaps)
    assert share >= 0.95, f"only {share:.1%} of sandwich gaps within 0.02"
    elapsed = time.monotonic() - started
    assert elapsed <= 600, f"criterion 5 exceeded its runtime budget: {elapsed:.1f}s"
    _report(5, f"sweep ordering holds; {share:.1%} of gaps <= 0.02 at grid 2048 / period 14", started)


def test_criterion_6_figure2_hull():
    started = time.monotonic()
    points, _ = barycentre_hull(pq_correspondence(2, 3), 10)
    extremal = [bp for bp in points if bp.on_hull]
    assert extremal
    for bp in extremal:
        assert is_sturmian(bp.orbit, F(1, 3))
        assert bp.sturmian
    elapsed = time.monotonic() - started
    assert elapsed <= 300, f"criterion 6 exceeded its runtime budget: {elapsed:.1f}s"
    _report(6, f"{len(extremal)} hull-extremal barycentres of {len(points)} orbits, all in a closed 1/3-circle", started)


def test_criterion_7_expansion_certificates():
    started = time.monotonic()
    lam, eta = expansion_certificate(three_branch_doubling())
    assert lam == 2 and eta > 0
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
    _report(7, f"three-branch certificate (lambda=2, eta={eta}); duplicated branch rejected", started)


def test_criterion_8_verify_determinism(tmp_path):
    started = time.monotonic()
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["verify", "--seed", "42", "--count", "100", "--out", str(out1)]) == 0
    assert main(["verify", "--seed", "42", "--count", "100", "--out", str(out2)]) == 0
    b1 = (out1 / "verify.txt").read_bytes()
    b2 = (out2 / "verify.txt").read_bytes()
    assert b1 == b2 and b"RESULT PASS" in b1
    _report(8, "two seeded verify runs are byte-identical", started)
