"""Maximum ergodic averages on finite systems.

The maximum average equals the best mean weight over directed cycles.  It is
computed exactly over rationals with Karp's maximum mean cycle algorithm,
and for float weights on large grids with Howard's policy iteration, whose
value is checked by a potential that bounds every cycle mean.  Alongside
come finite-horizon path maxima, a prefix-sum rotation witness, and a
brute-force oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._numbers import NEG_INF, float_tolerance
from .measures import Cycle, VertexMeasure, cycle_measure
from .system import FiniteMVSystem, eventual_domain, lift_function, simple_cycles

BRUTE_FORCE_STATE_LIMIT = 12
HOWARD_ITERATION_LIMIT = 1000


class NoCycleError(Exception):
    """Raised when an operation needs a directed cycle and none exists."""


class NoPathError(Exception):
    """Raised when no path of the requested length exists."""


class PolicyIterationError(RuntimeError):
    """Raised when Howard policy iteration reaches its iteration limit or its
    value fails the potential check."""


def _is_float_weights(weights) -> bool:
    return any(isinstance(w, float) for w in weights)


def _divide(num, k: int):
    if isinstance(num, float):
        return num / k
    return Fraction(num, 1) / k


# ---------------------------------------------------------------------------
# Karp's maximum mean cycle


def _walk_tables(system: FiniteMVSystem, weights):
    """Best-walk table: rows[j][v] = max weight of a walk with exactly j edges
    ending at v (NEG_INF when none), j = 0..n_states, from a virtual source."""
    n = system.n_states
    zero = 0.0 if _is_float_weights(weights) else Fraction(0)
    rows = [[zero] * n]
    edges = system.edges
    for _ in range(n):
        cur = rows[-1]
        nxt = [NEG_INF] * n
        for k, (t, h) in enumerate(edges):
            base = cur[t]
            if base is NEG_INF:
                continue
            cand = base + weights[k]
            if nxt[h] is NEG_INF or cand > nxt[h]:
                nxt[h] = cand
        rows.append(nxt)
    return rows


def max_mean_cycle_value(system: FiniteMVSystem, weights: Sequence):
    """Maximum cycle mean weight (Karp).  Exact for rational weights."""
    if len(weights) != len(system.edges):
        raise ValueError("weight vector length must equal the edge count")
    n = system.n_states
    rows = _walk_tables(system, weights)
    last = rows[n]
    best = NEG_INF
    for v in range(n):
        if last[v] is NEG_INF:
            continue
        worst = None
        for j in range(n):
            prev = rows[j][v]
            if prev is NEG_INF:
                continue
            val = _divide(last[v] - prev, n - j)
            if worst is None or val < worst:
                worst = val
        if worst is not None and worst > best:
            best = worst
    if best is NEG_INF:
        raise NoCycleError("the system has no directed cycle")
    return best


def _first_argmax(values: np.ndarray, starts: np.ndarray, tails: np.ndarray):
    """Per state, the first out-edge attaining the state's largest value,
    and that value; edges are sorted by tail and ``starts`` marks each tail's
    first edge."""
    best = np.maximum.reduceat(values, starts)
    ids = np.where(values == best[tails], np.arange(len(values)), len(values))
    return np.minimum.reduceat(ids, starts), best


def _evaluate_policy(succ: list[int], cost: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Cycle value eta and bias v of a policy, one walk of its functional
    graph: eta is the mean of the policy cycle a state runs into, v is 0 at
    the smallest state of each policy cycle and v(x) = cost(x) - eta(x) +
    v(succ(x)) everywhere else."""
    n = len(succ)
    eta = [0.0] * n
    v = [0.0] * n
    walk_of = [-1] * n
    for s in range(n):
        if walk_of[s] >= 0:
            continue
        path = []
        x = s
        while walk_of[x] < 0:
            walk_of[x] = s
            path.append(x)
            x = succ[x]
        if walk_of[x] == s:  # the walk closed a new policy cycle at x
            i = path.index(x)
            cycle = path[i:]
            del path[i:]
            mean = math.fsum(cost[y] for y in cycle) / len(cycle)
            j = cycle.index(min(cycle))
            cycle = cycle[j:] + cycle[:j]
            eta[cycle[0]] = mean
            for y in reversed(cycle[1:]):
                eta[y] = mean
                v[y] = cost[y] - mean + v[succ[y]]
        for y in reversed(path):
            eta[y] = eta[succ[y]]
            v[y] = cost[y] - eta[y] + v[succ[y]]
    return np.array(eta), np.array(v)


def _cycle_mean_bound(tails, heads, w, eta: np.ndarray, v: np.ndarray) -> float:
    """An upper bound on every cycle mean, from any labels eta and potential
    v: if eta never increases along an edge, a cycle keeps one eta and
    w - v(tail) + v(head) sums to its weight around it, so the largest such
    term over edges whose ends share an eta bounds its mean.  +inf when eta
    increases along some edge."""
    eta_tail, eta_head = eta[tails], eta[heads]
    if (eta_head > eta_tail).any():
        return math.inf
    return float(np.where(eta_head == eta_tail, w - v[tails] + v[heads], -np.inf).max())


def max_mean_cycle_value_float(system: FiniteMVSystem, weights: np.ndarray) -> float:
    """Maximum cycle mean for float weights on large systems, by Howard's
    policy iteration (Cochet-Terrasson, Cohen, Gaubert, McGettrick and
    Quadrat, 1998), in O(m) per iteration and O(m) memory.

    States on no bi-infinite orbit (``eventual_domain``) are dropped first:
    every cycle lies in what is left, and every state left has an out-edge.  A policy picks one out-edge per state; it starts
    from each state's heaviest edge.  Each iteration evaluates the policy
    (cycle value eta, bias v) and improves it: first towards any larger eta
    of the head, so that at the end eta never increases along an edge;
    otherwise, among edges whose head has the tail's eta, towards a larger
    w - eta + v(head), switching only on a gain above
    ``float_tolerance(weights)``.  The best policy cycle's mean (math.fsum
    of its weights over its length) is a lower bound on the maximum.

    A check that does not trust the iteration then bounds every cycle mean
    from above by max(w - v(tail) + v(head)) over the edges whose ends share
    an eta (``_cycle_mean_bound``).  That bound must not exceed the policy's
    value plus the tolerance.  The bound is returned when it exceeds the
    value by more than its own rounding error (the iteration stopped within
    the tolerance of the maximum), the value otherwise, so the result
    dominates every cycle mean up to float rounding, as Karp's did.
    Raises PolicyIterationError when the check fails or the iteration limit
    is reached, NoCycleError on acyclic systems.
    """
    w_all = np.asarray(weights, dtype=np.float64)
    if w_all.shape != (len(system.edges),):
        raise ValueError("weight vector length must equal the edge count")
    live = sorted(eventual_domain(system))
    if not live:
        raise NoCycleError("the system has no directed cycle")
    relabel = np.full(system.n_states, -1, dtype=np.int64)
    relabel[live] = np.arange(len(live))
    tails, heads = relabel[system.edge_array[:, 0]], relabel[system.edge_array[:, 1]]
    keep = (tails >= 0) & (heads >= 0)
    tails, heads, w = tails[keep], heads[keep], w_all[keep]
    starts = np.flatnonzero(np.r_[True, tails[1:] != tails[:-1]])
    tol = float_tolerance(w_all)

    policy, _ = _first_argmax(w, starts, tails)
    for _ in range(HOWARD_ITERATION_LIMIT):
        eta, v = _evaluate_policy(heads[policy].tolist(), w[policy].tolist())
        eta_head = eta[heads]
        choice, best = _first_argmax(eta_head, starts, tails)
        switch = best > eta
        if not switch.any():
            gain = np.where(eta_head == eta[tails], w - eta[tails] + v[heads], -np.inf)
            choice, best = _first_argmax(gain, starts, tails)
            switch = best > v + tol
            if not switch.any():
                break
        policy = np.where(switch, choice, policy)
    else:
        raise PolicyIterationError(
            f"Howard policy iteration did not converge in {HOWARD_ITERATION_LIMIT} iterations"
        )

    value = float(eta.max())
    bound = _cycle_mean_bound(tails, heads, w, eta, v)
    if bound > value + tol:
        raise PolicyIterationError(
            f"potential check failed: cycle means are bounded only by {bound!r}, "
            f"above the value {value!r} plus the tolerance {tol!r}"
        )
    # each term of the bound carries a rounding error of a few ulps of |w| and
    # |v|; a bound above the value by less than that is the value itself
    rounding = 8 * np.finfo(np.float64).eps * (np.abs(w).max() + np.abs(v).max())
    return bound if bound > value + rounding else value


def tight_edges(system: FiniteMVSystem, weights: Sequence, alpha, eps=0) -> list[int]:
    """Edge ids whose reduced weight is realized with equality by converged
    longest-walk potentials; cycles inside this subgraph are exactly the
    mean-maximizing cycles."""
    n = system.n_states
    zero = 0.0 if (_is_float_weights(weights) or isinstance(alpha, float)) else Fraction(0)
    pot = [zero] * n
    edges = system.edges
    for _ in range(n):
        changed = False
        nxt = list(pot)
        for k, (t, h) in enumerate(edges):
            cand = pot[t] + weights[k] - alpha
            if cand > nxt[h]:
                nxt[h] = cand
                changed = True
        pot = nxt
        if not changed:
            break
    out = []
    for k, (t, h) in enumerate(edges):
        gap = pot[t] + weights[k] - alpha - pot[h]
        if (eps == 0 and gap == 0) or (eps != 0 and abs(gap) <= eps):
            out.append(k)
    return out


def _shortest_cycle_in(n_states: int, succ: list[list[int]]) -> Cycle:
    """Canonical minimum-length cycle of a subgraph: shortest, then the
    lexicographically smallest state sequence among shortest ones."""
    best_len = None
    # shortest cycle through v = min over edges (u, v) of dist(v -> u) + 1
    dists = {}
    for v in range(n_states):
        if not succ[v]:
            continue
        dist = [-1] * n_states
        dist[v] = 0
        frontier = [v]
        while frontier:
            nxt = []
            for u in frontier:
                for wv in succ[u]:
                    if dist[wv] < 0:
                        dist[wv] = dist[u] + 1
                        nxt.append(wv)
            frontier = nxt
        dists[v] = dist
        loop = 1 if v in succ[v] else None
        back = [dist[u] for u in range(n_states) if v in succ[u] and dist[u] >= 0]
        through = min([d + 1 for d in back] + ([loop] if loop else [1 << 30]))
        if through < (1 << 30) and (best_len is None or through < best_len):
            best_len = through
    if best_len is None:
        raise NoCycleError("no cycle in the tight subgraph")

    # smallest start vertex lying on a cycle of the minimum length
    start = None
    for v in sorted(dists):
        dist = dists[v]
        arrives = min((dist[u] + 1 for u in range(n_states) if v in succ[u] and dist[u] >= 0),
                      default=1 << 30)
        if arrives == best_len:
            start = v
            break
    assert start is not None

    # exact-length reachability back to start; closed walks of minimal length
    # are necessarily simple, so a greedy lexicographic walk is the answer
    reach = [[False] * n_states for _ in range(best_len + 1)]
    reach[0][start] = True
    for r in range(1, best_len + 1):
        for u in range(n_states):
            reach[r][u] = any(reach[r - 1][w] for w in succ[u])
    walk = [start]
    cur = start
    for step in range(1, best_len):
        rem = best_len - step
        nxt = None
        for u in succ[cur]:
            if u != start and u not in walk and reach[rem][u]:
                nxt = u
                break
        assert nxt is not None, "exact-length completion must exist"
        walk.append(nxt)
        cur = nxt
    assert start in succ[cur]
    return Cycle(tuple(walk))


def max_mean_cycle(system: FiniteMVSystem, weights: Sequence, eps=0) -> tuple:
    """Maximum mean cycle value and the canonical cycle attaining it.

    Ties break to the shortest cycle, then the lexicographically smallest
    state sequence.  Raises NoCycleError on acyclic systems.
    """
    alpha = max_mean_cycle_value(system, weights)
    if eps == 0 and _is_float_weights(weights):
        eps = float_tolerance(weights)
    ids = tight_edges(system, weights, alpha, eps)
    succ: list[list[int]] = [[] for _ in range(system.n_states)]
    for k in ids:
        t, h = system.edges[k]
        succ[t].append(h)
    for lst in succ:
        lst.sort()
    return alpha, _shortest_cycle_in(system.n_states, succ)


# ---------------------------------------------------------------------------
# The five formulations


def alpha_state(system: FiniteMVSystem, f: Sequence) -> tuple:
    """Maximum ergodic average of a state function, with a maximizing cycle."""
    return max_mean_cycle(system, lift_function(f, system))


def delta_finite_horizon(system: FiniteMVSystem, f: Sequence, n: int):
    """Best average of f over orbit segments with n steps (n+1 states)."""
    if len(f) != system.n_states:
        raise ValueError("state function length must equal n_states")
    if n < 0:
        raise ValueError("horizon must be non-negative")
    cur = list(f)
    for _ in range(n):
        nxt = [NEG_INF] * system.n_states
        for t, h in system.edges:
            if cur[t] is NEG_INF:
                continue
            cand = cur[t] + f[h]
            if nxt[h] is NEG_INF or cand > nxt[h]:
                nxt[h] = cand
        cur = nxt
    best = max(cur)
    if best is NEG_INF:
        raise NoPathError(f"no orbit segment of length {n}")
    return _divide(best, n + 1)


def delta_sequence(system: FiniteMVSystem, f: Sequence, horizon: int) -> list[tuple[int, object]]:
    """(n, delta_n) for all n = 0..horizon in one dynamic-programming pass."""
    out = []
    cur = list(f)
    for n in range(horizon + 1):
        if n > 0:
            nxt = [NEG_INF] * system.n_states
            for t, h in system.edges:
                if cur[t] is NEG_INF:
                    continue
                cand = cur[t] + f[h]
                if nxt[h] is NEG_INF or cand > nxt[h]:
                    nxt[h] = cand
            cur = nxt
        best = max(cur)
        out.append((n, NEG_INF if best is NEG_INF else _divide(best, n + 1)))
    return out


def epsilon_witness(cycle: Cycle, f: Sequence) -> int:
    """Starting offset on the cycle from which every finite prefix average of
    f is at least the cycle mean: rotate to just after the prefix-sum minimum."""
    values = [f[x] for x in cycle.states]
    k = len(values)
    total = sum(values)
    mean = _divide(total, k)
    prefix = [0 * total]
    for v in values:
        prefix.append(prefix[-1] + v - mean)
    best_i, best_val = 0, prefix[0]
    for i in range(1, k):
        if prefix[i] < best_val:
            best_i, best_val = i, prefix[i]
    return best_i


def brute_force_alpha(system: FiniteMVSystem, f: Sequence):
    """Oracle: maximum cycle mean by full simple-cycle enumeration.

    Returns the NEG_INF sentinel on acyclic systems.  Guarded to small state
    counts; exact arithmetic.
    """
    if system.n_states > BRUTE_FORCE_STATE_LIMIT:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_STATE_LIMIT} states")
    best = NEG_INF
    for states in simple_cycles(system):
        mean = _divide(sum(f[x] for x in states), len(states))
        if best is NEG_INF or mean > best:
            best = mean
    return best


def maximizing_measures(system: FiniteMVSystem, f: Sequence) -> list[VertexMeasure]:
    """Cycle measures of every mean-maximizing simple cycle, deduplicated and
    sorted; always non-empty when a cycle exists."""
    weights = lift_function(f, system)
    alpha = max_mean_cycle_value(system, weights)
    eps = 0
    if _is_float_weights(weights):
        eps = float_tolerance(weights)
    ids = tight_edges(system, weights, alpha, eps)
    tight_sys = FiniteMVSystem.make(system.n_states, (system.edges[k] for k in ids))
    seen: dict[tuple, VertexMeasure] = {}
    for states in simple_cycles(tight_sys):
        vm, _ = cycle_measure(Cycle(states), system)
        seen.setdefault(vm.weights, vm)
    return [seen[w] for w in sorted(seen)]


# ---------------------------------------------------------------------------
# Report


@dataclass(frozen=True)
class MeaReport:
    """Computed averages for one (system, f) pair: alpha, the canonical
    maximizing cycle, the finite-horizon sequence and the rotation witness."""

    alpha: object
    maximizing_cycle: Cycle
    delta_seq: tuple
    epsilon_rotation: int
    tolerance: object


def mea_report(system: FiniteMVSystem, f: Sequence, horizon: int = 64) -> MeaReport:
    alpha, cycle = alpha_state(system, f)
    deltas = tuple(delta_sequence(system, f, horizon))
    rotation = epsilon_witness(cycle, f)
    tol = 0 if not _is_float_weights(f) else 1e-9
    return MeaReport(alpha, cycle, deltas, rotation, tol)
