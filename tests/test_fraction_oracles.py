"""The subaction certificate and the cycle-mean oracles in ``scaled``
integers against their ``Fraction`` versions in ``oracles``: every result
field, and every raised error's type and text, on rational, float and
mixed inputs.  Rationals must be equal, floats equal in ``repr``."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from mvergo._numbers import NEG_INF, ValidationError
from mvergo.io import load_system
from mvergo.mea import PositiveCycleError, brute_force_alpha, epsilon_witness, max_mean_cycle_value
from mvergo.measures import Cycle
from mvergo.subaction import SubactionResult, compute_phi, compute_v, verify_mane
from mvergo.system import lift_function, simple_cycles
from mvergo.verify import make_instances
from oracles import (
    fraction_brute_force_alpha,
    fraction_compute_v,
    fraction_epsilon_witness,
    fraction_verify_mane,
)

DATA = Path(__file__).resolve().parent / "data"


def same(a, b) -> bool:
    """Equal values of one type: floats (and tuples of them) equal in repr."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, SubactionResult) and isinstance(b, SubactionResult):
        return all(same(getattr(a, name), getattr(b, name))
                   for name in ("beta", "phi", "v", "slack", "tight_edge_ids",
                                "worst_edge_id"))
    if type(a) is not type(b):
        return False
    return repr(a) == repr(b) if isinstance(a, float) else a == b


def outcome(func, *args, **kwargs):
    """The result of a call, or the type, text and slack (if any) of the
    error it raised."""
    try:
        return func(*args, **kwargs)
    except (ArithmeticError, ValueError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "slack", None)


def same_outcome(func, oracle, *args, **kwargs) -> bool:
    got, want = outcome(func, *args, **kwargs), outcome(oracle, *args, **kwargs)
    return same(tuple(got) if isinstance(got, list) else got, want)


def as_float(f) -> tuple:
    return tuple(float(x) for x in f)


def mixed(f) -> tuple:
    """Every other value a float, the rest exact."""
    return tuple(float(x) if i % 2 else x for i, x in enumerate(f))


INSTANCES = make_instances(41, 40) + make_instances(42, 40, max_states=5)
# (name, copy of f) for every instance: exact, float, mixed
NUMBER_FORMATS = [("rational", tuple), ("float", as_float), ("mixed", mixed)]


def certificate_cases(system, f_state):
    """(f_edge, phi, v-builder inputs, beta) for the certificate of one
    state function: at its maximum average, and, for rational f, at that
    value rounded to a float (the --beta-override path)."""
    f_edge = lift_function(f_state, system)
    beta = max_mean_cycle_value(system, f_edge)
    betas = [beta]
    if not any(isinstance(x, float) for x in f_state):
        betas.append(float(beta))
    for b in betas:
        try:
            phi = compute_phi(system, f_edge, b)
        except PositiveCycleError:
            # the rounded beta is below the exact maximum: read the exact
            # potential in floats instead, so the certificate has to fail
            phi = tuple(p if p is NEG_INF else float(p)
                        for p in compute_phi(system, f_edge, beta))
        yield f_edge, phi, b


def check_certificate(system, f_state):
    for f_edge, phi, beta in certificate_cases(system, f_state):
        assert same_outcome(compute_v, fraction_compute_v, phi, f_edge, beta)
        v = fraction_compute_v(phi, f_edge, beta)
        assert same_outcome(verify_mane, fraction_verify_mane, system, f_edge, v, beta, phi=phi)
        # a violated edge, and a beta that bounds every cycle but no cycle attains
        zero = 0 * beta
        assert same_outcome(verify_mane, fraction_verify_mane, system, f_edge,
                            (zero,) * system.n_states, beta)
        assert same_outcome(verify_mane, fraction_verify_mane, system, f_edge, v, beta + 1)


@pytest.mark.parametrize("name, copy", NUMBER_FORMATS, ids=[n for n, _ in NUMBER_FORMATS])
def test_subaction_certificate_matches_fraction_oracle_on_instances(name, copy):
    for inst in INSTANCES:
        check_certificate(inst.system, copy(inst.f))


@pytest.mark.parametrize("ring", ["ring_n128_m512", "ring_n128_m512_float"])
def test_subaction_certificate_matches_fraction_oracle_on_ring(ring):
    doc = load_system(DATA / ring / "input.json")
    check_certificate(doc.system, doc.f_state)


def test_compute_v_outcomes_match_fraction_oracle():
    # phi without a finite part, and +infinity in phi
    for f, beta in [((Fraction(1, 3),), 0), ((0.5,), 1), ((Fraction(1),), 0.25)]:
        assert same_outcome(compute_v, fraction_compute_v, (NEG_INF, NEG_INF), f, beta)
    assert same_outcome(compute_v, fraction_compute_v, (0.0, float("inf")), (1.0,), 1.0)


def test_compute_v_without_edges_fills_with_beta():
    # no edge constrains v, and max f over no edges reads as 0 (the
    # oracle's max() raises on the empty sequence)
    assert compute_v((NEG_INF, NEG_INF), (), Fraction(1, 2)) == (Fraction(1, 2),) * 2
    assert same(compute_v((NEG_INF,), (), 0.5), (0.5,))


@pytest.mark.parametrize("name, copy", NUMBER_FORMATS, ids=[n for n, _ in NUMBER_FORMATS])
def test_brute_force_alpha_matches_fraction_oracle(name, copy):
    for inst in INSTANCES:
        f = copy(inst.f)
        assert same(brute_force_alpha(inst.system, f), fraction_brute_force_alpha(inst.system, f))


@pytest.mark.parametrize("name, copy", NUMBER_FORMATS, ids=[n for n, _ in NUMBER_FORMATS])
def test_epsilon_witness_matches_fraction_oracle(name, copy):
    for inst in INSTANCES:
        f = copy(inst.f)
        for states in simple_cycles(inst.system):
            cycle = Cycle(states)
            assert epsilon_witness(cycle, f) == fraction_epsilon_witness(cycle, f)


def walk_cycles(system, count: int, seed: int) -> list[Cycle]:
    """Cycles closed by seeded random walks: follow random successors from
    a random state until a state repeats, and keep the loop."""
    rng = random.Random(seed)
    cycles = []
    while len(cycles) < count:
        path, seen, x = [], {}, rng.randrange(system.n_states)
        while x not in seen and system.successors[x]:
            seen[x] = len(path)
            path.append(x)
            x = rng.choice(system.successors[x])
        if x in seen:
            states = path[seen[x]:]
            i = states.index(min(states))
            cycles.append(Cycle(tuple(states[i:] + states[:i])))
    return cycles


@pytest.mark.parametrize("ring", ["ring_n128_m512", "ring_n128_m512_float"])
def test_epsilon_witness_matches_fraction_oracle_on_ring(ring):
    # all 128 states in order as one long sequence, and 200 walk cycles
    doc = load_system(DATA / ring / "input.json")
    cycles = [Cycle(tuple(range(doc.system.n_states)))] + walk_cycles(doc.system, 200, seed=7)
    for cycle in cycles:
        assert epsilon_witness(cycle, doc.f_state) == fraction_epsilon_witness(cycle, doc.f_state)
