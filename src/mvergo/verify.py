"""Seeded randomized verification suites.

Each suite checks one contract on a stream of random finite systems with
rational state functions: the cycle-mean value against brute force, the
finite-horizon bounds, the rotation witness, the edge-system lift, the
subaction slack certificate, and the invariance tests.  All randomness comes
from one seed, so reports are byte-identical across runs.

The suites share one exact solve per instance (``Instance.alpha``).  Two
checks of that solve do not trust it: brute force over the simple cycles,
and the Mañé slack certificate, which takes the shared alpha as beta and
accepts it from the slacks alone.  ``check_graph_lift`` solves the edge
system itself, since comparing that solve is its check.  The checks decide
on the instance's values in the integer format of ``_numbers.scaled``; only
a failure message divides a mean back into a Fraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from ._numbers import NEG_INF, ValidationError, divide, failure_message, scaled
from .io import dumps_system
from .mea import (
    alpha_state,
    brute_force_alpha,
    delta_finite_horizon,
    epsilon_witness,
)
from .measures import (
    Cycle,
    VertexMeasure,
    cycle_measure,
    extreme_invariant_measures,
    invariant_by_subsets,
    is_invariant,
)
from .subaction import subaction_for_state_function
from .system import FiniteMVSystem, graph_system, lift_function, simple_cycles

SINGLE_VALUED_EVERY = 5


@dataclass(frozen=True)
class Instance:
    system: FiniteMVSystem
    f: tuple

    @cached_property
    def alpha(self) -> tuple:
        """``alpha_state(system, f)``, solved once and read by every suite."""
        return alpha_state(self.system, self.f)

    def dump(self) -> str:
        return dumps_system(self.system, f_state=self.f)


def random_system(rng: random.Random, max_states: int = 8,
                  single_valued: bool = False) -> FiniteMVSystem:
    """A random system that always contains at least one cycle."""
    n = rng.randint(2, max_states)
    edges: set[tuple[int, int]] = set()
    if single_valued:
        for x in range(n):
            edges.add((x, rng.randrange(n)))
    else:
        cyc_len = rng.randint(1, n)
        cyc = rng.sample(range(n), cyc_len)
        for i in range(cyc_len):
            edges.add((cyc[i], cyc[(i + 1) % cyc_len]))
        for _ in range(rng.randint(0, 2 * n)):
            edges.add((rng.randrange(n), rng.randrange(n)))
    return FiniteMVSystem.make(n, edges)


def random_state_function(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(n))


def make_instances(seed: int, count: int, max_states: int = 8) -> list[Instance]:
    """The shared instance stream: every ``SINGLE_VALUED_EVERY``-th instance
    is single-valued (one out-edge per state)."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        sv = i % SINGLE_VALUED_EVERY == SINGLE_VALUED_EVERY - 1
        system = random_system(rng, max_states, single_valued=sv)
        out.append(Instance(system, random_state_function(rng, system.n_states)))
    return out


# ---------------------------------------------------------------------------
# Per-instance checks: return None on pass, a message on failure


def check_alpha_oracle(inst: Instance):
    alpha, cycle = inst.alpha
    oracle = brute_force_alpha(inst.system, inst.f)
    if alpha != oracle:
        return f"alpha {alpha} != brute force {oracle}"
    (g, (a,)), d = scaled(inst.f, (alpha,))
    total, k = sum([g[x] for x in cycle.states]), len(cycle)
    if total != a * k:
        return f"canonical cycle mean {divide(total, k, d)} != alpha {alpha}"
    return None


def check_delta_bounds(inst: Instance):
    alpha, _ = inst.alpha
    bound_scale = 2 * inst.system.n_states * max(abs(v) for v in inst.f)
    for n in (8, 16, 32, 64):
        delta_n = delta_finite_horizon(inst.system, inst.f, n)
        gap = delta_n - alpha
        if abs(gap) * (n + 1) > bound_scale:
            return f"delta_{n} = {delta_n} is {gap} away from alpha {alpha}"
    return None


def check_epsilon(inst: Instance):
    alpha, cycle = inst.alpha
    rot = epsilon_witness(cycle, inst.f)
    k = len(cycle)
    states = cycle.states[rot:] + cycle.states[:rot]
    # the prefix average of n + 1 values dips below alpha when their sum
    # does below (n + 1) alpha, in integers over one denominator
    (g, (a,)), _d = scaled(inst.f, (alpha,))
    running = 0
    for n in range(4 * k):
        running += g[states[n % k]]
        if running < a * (n + 1):
            return f"prefix average at n={n} dips below alpha from rotation {rot}"
    return None


def check_graph_lift(inst: Instance):
    lifted_sys = graph_system(inst.system)
    f_hat = lift_function(inst.f, inst.system)
    alpha, cycle = inst.alpha
    alpha_hat, cycle_hat = alpha_state(lifted_sys, f_hat)
    if alpha != alpha_hat:
        return f"alpha {alpha} != lifted alpha {alpha_hat}"
    tails = tuple(inst.system.edges[e][0] for e in cycle_hat.states)
    k = len(tails)
    rotations = [tails[r:] + tails[:r] for r in range(k)]
    if min(rotations) != cycle.states:
        return f"lifted cycle {tails} does not project onto {cycle.states}"
    return None


def check_mane(inst: Instance):
    # beta is the shared alpha: the slacks certify it, or the pipeline raises
    try:
        result = subaction_for_state_function(inst.system, inst.f, inst.alpha[0])
    except ValidationError as exc:
        return failure_message(exc)
    if min(result.slack) < 0:
        return f"negative slack {min(result.slack)}"
    # the checks below run in integers over one denominator for f, beta,
    # v and the finite part of phi; a failed mean is divided for its message
    system, phi = inst.system, result.phi
    finite = [x for x in range(system.n_states) if phi[x] is not NEG_INF]
    (g, (b,), v, p), d = scaled(inst.f, (result.beta,), result.v, [phi[x] for x in finite])
    # every all-tight cycle of the tight subgraph telescopes to mean beta
    tight_sys = FiniteMVSystem.make(
        system.n_states, (system.edges[k] for k in result.tight_edge_ids)
    )
    for states in simple_cycles(tight_sys):
        total, k = sum([g[x] for x in states]), len(states)
        if total != b * k:
            return f"all-tight cycle {states} has mean {divide(total, k, d)} != beta {result.beta}"
    # the potential itself satisfies the edge inequality on its finite part
    pot = dict(zip(finite, p))
    for t, h in system.edges:
        if t in pot and (h not in pot or pot[t] > pot[h] + b - g[t]):
            return f"potential inequality fails on edge ({t}, {h})"
    # single-valued systems: the per-state classical inequality
    if all(len(s) == 1 for s in system.successors):
        for x in range(system.n_states):
            y = system.successors[x][0]
            if g[x] + v[x] - v[y] > b:
                return f"per-state inequality fails at state {x}"
    return None


def check_measures(inst: Instance):
    system = inst.system
    if system.n_states > 6:
        return None  # subset oracle is exponential; checked on small systems
    cycles = simple_cycles(system)
    if not cycles:
        return None
    vms = []
    for states in cycles[:6]:
        vm, circ = cycle_measure(Cycle(states), system)
        ok, witness = is_invariant(system, vm)
        if not ok or witness is None:
            return f"cycle measure of {states} not certified invariant"
        if not invariant_by_subsets(system, vm):
            return f"subset oracle rejects cycle measure of {states}"
        vms.append(vm)
    # convexity at rational mixtures strictly between the two measures, which
    # the loop above certified themselves: a = j/4 of the first cycle's
    # uniform 1/k0 and 1 - a of the second's 1/k1, integers over 4 k0 k1
    if len(vms) >= 2:
        on0, on1 = (frozenset(c) for c in cycles[:2])
        k0, k1 = len(on0), len(on1)
        den = 4 * k0 * k1
        for j in (1, 2, 3):
            mix = VertexMeasure(tuple([
                Fraction(j * k1 * (x in on0) + (4 - j) * k0 * (x in on1), den)
                for x in range(system.n_states)]))
            ok, _ = is_invariant(system, mix)
            if not ok:
                return f"convex mixture at a={Fraction(j, 4)} not invariant"
            if not invariant_by_subsets(system, mix):
                return f"subset oracle rejects mixture at a={Fraction(j, 4)}"
    # extreme points are certified invariant and are cycle projections: a
    # simple cycle's vertex projection is uniform, 1/|S|, on its state set S
    cycle_meas = set()
    zero = Fraction(0)
    for states in {frozenset(c) for c in cycles}:
        share = Fraction(1, len(states))
        cycle_meas.add(tuple(share if x in states else zero for x in range(system.n_states)))
    for vm in extreme_invariant_measures(system):
        if vm.weights not in cycle_meas:
            return "an extreme measure is not a simple-cycle projection"
    return None


SUITES = (
    ("alpha-oracle", check_alpha_oracle),
    ("delta-bounds", check_delta_bounds),
    ("epsilon-witness", check_epsilon),
    ("graph-lift", check_graph_lift),
    ("mane-subaction", check_mane),
    ("measures", check_measures),
)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    lines: tuple[str, ...]

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def run_verify(seed: int, count: int = 200, max_states: int = 8) -> VerifyReport:
    """Run every suite on ``count`` instances from ``seed``: a PASS or FAIL
    line per suite, with the first counterexample dumped on FAIL.  The
    suites share each instance's one exact solve; brute force and the Mañé
    slack certificate check that solve independently."""
    instances = make_instances(seed, count, max_states)
    lines = [f"verification suites: seed={seed} instances={count} max_states={max_states}"]
    all_ok = True
    for name, check in SUITES:
        failures = []
        for idx, inst in enumerate(instances):
            msg = check(inst)
            if msg is not None:
                failures.append((idx, inst, msg))
        if failures:
            all_ok = False
            idx, inst, msg = failures[0]
            lines.append(f"FAIL {name}: {len(failures)}/{count} instances, first at #{idx}: {msg}")
            lines.append("counterexample:")
            lines.extend("  " + ln for ln in inst.dump().splitlines())
        else:
            lines.append(f"PASS {name}: {count}/{count} instances")
    lines.append("RESULT " + ("PASS" if all_ok else "FAIL"))
    return VerifyReport(all_ok, tuple(lines))
