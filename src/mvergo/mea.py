"""Maximum ergodic averages on finite systems.

The maximum average equals the best mean weight over directed cycles.  One
algorithm computes it, Howard's policy iteration.  ``max_mean_cycle_value``
runs it exactly, on Python ints in the format of ``_numbers.scaled`` (a
float weight counts as its exact binary rational, and only the result is
rounded).  ``HowardSolver`` runs it in floats for the weights of large
grids, prepared once per graph and warm-started from its last policy; it
evaluates each policy in numpy depth layers (``_evaluate_policy``), where
each bias comes from its successor's, computed one layer earlier, by the
float operations of a sequential walk, so the bits are those of one.  Both
return a value only once a potential shows that it bounds every cycle mean.
The exact solver starts each state on its best two-step walk
(``_lookahead_policy``).  The finite-horizon path maxima and the one
potential (``_reduced_fixpoint``, ``subaction``'s phi, whose zero gaps are
``tight_edges``) run one max-plus relaxation step (``_relax``); in integers
the path maxima stop at the first round that repeats an earlier one up to
a constant, and fill the rest of the horizon from the repeat
(``_segment_maxima``).  They take the number format and the tolerance
of the finite layer from ``_numbers``: rational inputs run as Python ints
over one denominator (``scaled``), and equality decisions allow
``tie_tolerance``, which is 0 unless an input is a float.  Alongside come a
prefix-sum rotation witness and a brute-force oracle.  Only the float
solver's functions import numpy, when they run, so the exact commands never
load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from ._numbers import (
    NEG_INF,
    InputTooLargeError,
    ValidationError,
    check_float_range,
    divide,
    float_tolerance,
    scaled,
    tie_tolerance,
)
from .measures import Cycle, VertexMeasure, cycle_measure
from .system import (
    FiniteMVSystem,
    eventual_domain,
    eventual_domain_array,
    lift_function,
    simple_cycles,
)

if TYPE_CHECKING:
    import numpy as np

BRUTE_FORCE_STATE_LIMIT = 12
HOWARD_ITERATION_LIMIT = 1000


class NoCycleError(ValidationError):
    """Raised when an operation needs a directed cycle and none exists."""

    prefix = "no cycle"


class NoPathError(ValidationError):
    """Raised when no path of the requested length exists."""


class PolicyIterationError(RuntimeError):
    """Raised when Howard policy iteration reaches its iteration limit or its
    value fails the potential check."""


class PositiveCycleError(ValidationError):
    """Raised when reduced weights admit a positive cycle: beta is too low."""

    prefix = "positive reduced cycle"


class PolicyIterationLimitError(PolicyIterationError, InputTooLargeError):
    """Raised when Howard policy iteration reaches ``HOWARD_ITERATION_LIMIT``:
    the input is too large for the iteration budget."""


# ---------------------------------------------------------------------------
# The max-plus relaxation kernel; its number format is ``_numbers.scaled``


def _relax(edges, weights, values, out) -> None:
    """One max-plus relaxation step, the inner loop of every Bellman pass:
    out[h] = max(out[h], values[t] + weights[k]) over the edges k = (t, h)
    whose tail is reached.  None marks an unreached state, in ``values`` and
    in ``out``."""
    for (t, h), w in zip(edges, weights):
        base = values[t]
        if base is None:
            continue
        cand = base + w
        best = out[h]
        if best is None or cand > best:
            out[h] = cand


def _reduced_fixpoint(system: FiniteMVSystem, reduced: list, tol) -> list:
    """phi(x), the best sum of ``reduced`` over walks of one edge or more
    ending at x (None with no predecessor), by rounds of ``_relax`` from the
    clamped base max(phi, 0).  They never lower phi and freeze, up to
    ``tol``, within n_states + 1 rounds unless a reduced cycle is positive,
    which raises PositiveCycleError."""
    n = system.n_states
    phi = [None] * n
    for _ in range(n + 1):
        nxt = [None] * n
        _relax(system.edges, reduced, [0 if p is None or p < 0 else p for p in phi], nxt)
        if nxt == phi or tol != 0 and all(
            (a is None) == (b is None) and (a is None or abs(a - b) <= tol)
            for a, b in zip(nxt, phi)
        ):
            return nxt
        phi = nxt
    raise PositiveCycleError(
        "value iteration still improving after n_states + 1 rounds; "
        "beta is below the maximum ergodic average"
    )


# ---------------------------------------------------------------------------
# Howard's policy iteration, exact and in floats


def _policy_walk(succ: list[int], states: list[int]) -> tuple[list[list[int]], list[int]]:
    """The cycles of a policy's functional graph on ``states``, each from its
    smallest state, and the other states in an order that puts each after
    its successor, from one walk of the graph."""
    walk_of = [-1] * len(succ)
    cycles, order = [], []
    for s in states:
        if walk_of[s] >= 0:
            continue
        path = []
        append = path.append
        x = s
        while walk_of[x] < 0:
            walk_of[x] = s
            append(x)
            x = succ[x]
        if walk_of[x] == s:  # the walk closed a new policy cycle at x
            i = path.index(x)
            cycle = path[i:]
            del path[i:]
            j = cycle.index(min(cycle))
            cycles.append(cycle[j:] + cycle[:j])
        path.reverse()
        order += path
    return cycles, order


def _policy_values(succ, cost, cycles, means, order, zero):
    """Cycle value eta and bias v of a policy, from its ``_policy_walk``
    and the mean cost of each of its cycles: eta is the mean of the policy
    cycle a state runs into, v is 0 at the smallest state of each policy
    cycle and v(x) = cost(x) - eta(x) + v(succ(x)) everywhere else."""
    eta = [zero] * len(succ)
    v = [zero] * len(succ)
    for cycle, mean in zip(cycles, means):
        eta[cycle[0]] = mean
        for y in reversed(cycle[1:]):
            eta[y] = mean
            v[y] = cost[y] - mean + v[succ[y]]
    for y in order:
        z = succ[y]
        eta[y] = e = eta[z]
        v[y] = cost[y] - e + v[z]
    return eta, v


def _evaluate_policy_exact(succ: list[int], cost: list[int],
                           states: list[int]) -> tuple[list[int], list[int], int]:
    """Exact eta and v (``_policy_values``) of a policy with integer costs on
    ``states``: integers over L, the lcm of the policy's cycle lengths, and
    L."""
    cycles, order = _policy_walk(succ, states)
    scale = math.lcm(*[len(cycle) for cycle in cycles])
    cost = [c * scale for c in cost]
    means = [sum([cost[y] for y in cycle]) // len(cycle) for cycle in cycles]
    eta, v = _policy_values(succ, cost, cycles, means, order, 0)
    return eta, v, scale


def _certified(live, outs, head, w, eta, v, scale) -> bool:
    """Whether eta and v over L bound every cycle mean by the largest eta,
    in integers: eta never rises along an edge, so a cycle keeps one eta;
    and no reduced weight w L - eta + v(head) - v(tail) inside an eta class
    is positive, while those weights sum around a cycle to L times its
    weight minus its length times eta."""
    for x in live:
        ex, vx = eta[x], v[x]
        for k in outs[x]:
            h = head[k]
            if eta[h] > ex or eta[h] == ex and w[k] * scale - ex + v[h] > vx:
                return False
    return True


def _lookahead_policy(outs: list[list[int]], head: list[int], w: list[int]) -> list[int]:
    """The exact solver's start: each state's first out-edge k maximising
    w[k] plus the heaviest out-weight of head[k], i.e. the best two-step
    walk; -1 for a state without out-edges.  On the lift of a state
    function every out-edge of x weighs f(x), so the heaviest edge alone
    would be the first out-edge."""
    top = [max([w[k] for k in ks]) if ks else None for ks in outs]
    return [max(ks, key=lambda k: w[k] + top[head[k]]) if ks else -1 for ks in outs]


def _howard_exact(system: FiniteMVSystem, w: list[int]) -> tuple[int, int]:
    """The maximum cycle mean for integer edge weights, as (num, L) standing
    for num / L, by Howard's policy iteration in integers; see
    ``max_mean_cycle_value``."""
    live = sorted(eventual_domain(system))
    if not live:
        raise NoCycleError("the system has no directed cycle")
    alive = [False] * system.n_states
    for x in live:
        alive[x] = True
    head = [h for _t, h in system.edges]
    # a policy is an out-edge id per live state, between live states; the
    # walk never reaches the -1 held by a state off the domain
    outs = [[k for k in ids if alive[head[k]]] if alive[x] else []
            for x, ids in enumerate(system.out_edge_ids)]
    policy = _lookahead_policy(outs, head, w)
    for _ in range(HOWARD_ITERATION_LIMIT):
        eta, v, scale = _evaluate_policy_exact([head[k] for k in policy],
                                               [w[k] for k in policy], live)
        # the largest eta is the mean of a policy cycle, and the certificate
        # bounds every cycle mean by it: the iteration itself is not trusted
        if _certified(live, outs, head, w, eta, v, scale):
            return max([eta[x] for x in live]), scale
        # a strict gain moves a state to its first best edge: first towards a
        # larger eta of the head, then, when no eta can rise, towards a larger
        # w - eta + v(head) among heads with the state's own eta
        switched = False
        for x in live:
            best, pick = eta[x], -1
            for k in outs[x]:
                if eta[head[k]] > best:
                    best, pick = eta[head[k]], k
            if pick >= 0:
                policy[x] = pick
                switched = True
        if not switched:
            for x in live:
                ex = eta[x]
                best, pick = v[x], -1
                for k in outs[x]:
                    h = head[k]
                    if eta[h] == ex:
                        gain = w[k] * scale - ex + v[h]
                        if gain > best:
                            best, pick = gain, k
                if pick >= 0:
                    policy[x] = pick
    raise PolicyIterationLimitError(
        f"Howard policy iteration did not converge in {HOWARD_ITERATION_LIMIT} iterations"
    )


def max_mean_cycle_value(system: FiniteMVSystem, weights: Sequence):
    """Maximum cycle mean weight, exactly, by Howard's policy iteration
    (Cochet-Terrasson, Cohen, Gaubert, McGettrick and Quadrat, 1998) on the
    weights in the format of ``_numbers.scaled``.

    Float weights must pass ``check_float_range``, which also covers the
    potentials of ``tight_edges`` at the returned mean; they are then solved
    as their exact binary rationals, and the result is the exact maximum
    rounded to the nearest float.

    The iteration is that of ``HowardSolver`` on the states of
    ``eventual_domain``, in integers, but for its start: each state starts
    on its first out-edge k of largest w[k] plus the heaviest out-weight of
    head[k] (``_lookahead_policy``), since the lift of a state function
    weighs all out-edges of a state alike; eta and the bias v are Python ints
    over L, the lcm of the policy's cycle lengths, so every comparison is
    exact.  It stops when a check that does not trust it holds, in
    integers: eta never increases along an edge, and no reduced edge weight
    inside an eta class is positive (``_certified``).  Raises
    PolicyIterationLimitError when ``HOWARD_ITERATION_LIMIT`` is reached,
    NoCycleError on acyclic systems.
    """
    if len(weights) != len(system.edges):
        raise ValueError("weight vector length must equal the edge count")
    (w,), d = scaled(weights)
    if d is not None:
        return divide(*_howard_exact(system, w), d)
    check_float_range(w, system.n_states)
    (w,), d = scaled([Fraction(x) for x in weights])
    return float(divide(*_howard_exact(system, w), d))


def _evaluate_policy(succ: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float eta and v of a policy on all states, as ``_policy_values``
    defines them, one depth layer at a time; a cycle's mean is math.fsum of
    its costs over its length.

    The cycle states are the image of succ^(2^K), 2^K >= n, from K
    pointer-doubling gathers.  Each cycle is walked in Python from its least
    state.  Every other state's depth, its distance to a cycle, comes from
    binary lifting on the kept jumps, over the levels that the deepest state
    needs.  One stable sort by depth then makes each layer a slice whose
    successors lie in the layer before, so v(x) = (cost(x) - eta(x)) +
    v(succ(x)) is the same two float operations on the same successor value
    as in a sequential walk, and the bits are those of one.  No layer scans
    all states: the work is O(n log n) plus O(1) numpy calls per layer.
    Overflow gives inf or nan silently, as Python floats do."""
    import numpy as np

    n = len(succ)
    jumps = [succ]
    while 1 << (len(jumps) - 1) < n:
        jumps.append(jumps[-1][jumps[-1]])
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[jumps[-1]] = True
    eta, v = np.empty(n), np.empty(n)

    cyc = np.flatnonzero(on_cycle)  # ascending, so each cycle is met at its least state
    nxt = np.searchsorted(cyc, succ[cyc]).tolist()
    costs = cost[cyc].tolist()
    eta_c, v_c, seen = [0.0] * len(cyc), [0.0] * len(cyc), [False] * len(cyc)
    for i in range(len(cyc)):
        if seen[i]:
            continue
        cycle = [i]
        j = nxt[i]
        while j != i:
            cycle.append(j)
            j = nxt[j]
        mean = math.fsum([costs[j] for j in cycle]) / len(cycle)
        acc = 0.0
        for j in reversed(cycle[1:]):
            acc = costs[j] - mean + acc
            v_c[j] = acc
        for j in cycle:
            eta_c[j], seen[j] = mean, True
    eta[cyc], v[cyc] = eta_c, v_c

    off_cycle = ~on_cycle
    tree = np.flatnonzero(off_cycle)
    # depth(x) = 1 + the most steps from x that stay off the cycles; succ^(2^top)
    # puts every state on a cycle, so the levels below top add up to it
    top = next(k for k, jump in enumerate(jumps) if not off_cycle[jump].any())
    last, depth = tree, np.ones(len(tree), dtype=np.int64)
    for k in reversed(range(top)):
        ahead = jumps[k][last]
        up = off_cycle[ahead]
        last = np.where(up, ahead, last)
        depth += up * (1 << k)
    eta[tree] = eta[succ[last]]  # the mean of the cycle that x runs into
    order = tree[np.argsort(depth, kind="stable")]
    ends = np.cumsum(np.bincount(depth)).tolist()
    to = succ[order]
    with np.errstate(over="ignore", invalid="ignore"):
        base = cost[order] - eta[order]
        for a, b in zip(ends[:-1], ends[1:]):
            v[order[a:b]] = base[a:b] + v[to[a:b]]
    return eta, v


def _cycle_mean_bound(tails, heads, w, eta: np.ndarray, v: np.ndarray) -> float:
    """An upper bound on every cycle mean, from any labels eta and potential
    v: if eta never increases along an edge, a cycle keeps one eta and
    w - v(tail) + v(head) sums to its weight around it, so the largest such
    term over edges whose ends share an eta bounds its mean.  +inf when eta
    increases along some edge."""
    import numpy as np

    eta_tail, eta_head = eta[tails], eta[heads]
    if (eta_head > eta_tail).any():
        return math.inf
    return float(np.where(eta_head == eta_tail, w - v[tails] + v[heads], -np.inf).max())


class HowardSolver:
    """Howard's policy iteration (Cochet-Terrasson, Cohen, Gaubert,
    McGettrick and Quadrat, 1998) prepared once for one system, to solve it
    for many float weight vectors in O(m + n log n) per iteration and O(m +
    n log n) memory: the improvement step is O(m), and ``_evaluate_policy``
    sorts the n live states into depth layers by O(log n) gathers.

    Preparation keeps what depends on the graph alone, read off the
    system's ``edge_array``.  States on no bi-infinite orbit
    (``eventual_domain_array``, the ``eventual_domain`` of the arrays) are
    dropped: every cycle lies in what is left, and every state left has an
    out-edge there.  The live states are relabelled 0..n-1 in order;
    ``keep`` marks the system's edges between them, whose relabelled ends
    are ``tails`` and ``heads``.  ``out`` is the padded out-edge table: row
    x lists x's edges in edge order, then the sentinel edge m = len(tails)
    up to the largest out-degree.

    ``policy`` is the final policy of the last solve (edge ids into the kept
    edges) and the next solve starts from it: solves of nearby weights, as
    in a parameter sweep, then take few iterations.  ``iterations`` counts
    the policy evaluations of the last solve.
    """

    def __init__(self, system: FiniteMVSystem):
        import numpy as np

        self.system = system
        edges = system.edge_array
        live = eventual_domain_array(system.n_states, edges[:, 0], edges[:, 1])
        relabel = np.full(system.n_states, -1, dtype=np.int64)
        relabel[live] = np.arange(len(live))
        tails, heads = relabel[edges[:, 0]], relabel[edges[:, 1]]
        self.keep = (tails >= 0) & (heads >= 0)
        self.tails, self.heads = tails[self.keep], heads[self.keep]
        m = len(self.tails)
        degree = np.bincount(self.tails, minlength=len(live))
        first = np.cumsum(degree) - degree
        self.out = np.full((len(live), degree.max(initial=0)), m, dtype=np.int64)
        self.out[self.tails, np.arange(m) - first[self.tails]] = np.arange(m)
        self._rows = np.arange(len(live))
        self._padded = np.full(m + 1, -np.inf)  # edge values, then the sentinel's -inf
        self.policy: np.ndarray | None = None
        self.iterations = 0

    def _first_argmax(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per state, the first out-edge attaining the state's largest value,
        and that value: ``argmax`` returns a row's first maximum, and the
        sentinel's -inf never beats an edge."""
        self._padded[:-1] = values
        table = self._padded[self.out]
        arg = table.argmax(axis=1)
        return self.out[self._rows, arg], table[self._rows, arg]

    def solve(self, weights: np.ndarray) -> float:
        """Maximum cycle mean for one float weight vector on the system's
        edges; see ``max_mean_cycle_value_float``."""
        import numpy as np

        w_all = np.asarray(weights, dtype=np.float64)
        if w_all.shape != (len(self.system.edges),):
            raise ValueError("weight vector length must equal the edge count")
        if not len(self._rows):
            raise NoCycleError("the system has no directed cycle")
        tails, heads, w = self.tails, self.heads, w_all[self.keep]
        # the largest magnitude in one numpy reduction, not a Python pass over the array
        tol = float_tolerance([np.abs(w_all).max(initial=0.0)])

        policy = self.policy
        if policy is None:
            policy, _ = self._first_argmax(w)
        for count in range(1, HOWARD_ITERATION_LIMIT + 1):
            eta, v = _evaluate_policy(heads[policy], w[policy])
            eta_head = eta[heads]
            choice, best = self._first_argmax(eta_head)
            switch = best > eta
            if not switch.any():
                eta_tail = eta[tails]
                gain = np.where(eta_head == eta_tail, w - eta_tail + v[heads], -np.inf)
                choice, best = self._first_argmax(gain)
                switch = best > v + tol
                if not switch.any():
                    break
            policy = np.where(switch, choice, policy)
        else:
            raise PolicyIterationLimitError(
                f"Howard policy iteration did not converge in {HOWARD_ITERATION_LIMIT} iterations"
            )
        self.policy, self.iterations = policy, count

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


def max_mean_cycle_value_float(system: FiniteMVSystem, weights: np.ndarray,
                               solver: HowardSolver | None = None) -> float:
    """Maximum cycle mean for float weights on large systems, by Howard's
    policy iteration (``HowardSolver``).  ``solver``, prepared for
    ``system``, is reused and starts from its last final policy (the outer
    grid of a sweep keeps one, ``bounds.GridModel.howard``); without it a
    solver is prepared for this call and starts cold.

    A policy picks one out-edge per live state; a cold start takes each
    state's heaviest edge, the first on ties.  Each iteration evaluates the
    policy (cycle value eta, bias v) and improves it: first towards any
    larger eta of the head, so that at the end eta never increases along an
    edge; otherwise, among edges whose head has the tail's eta, towards a
    larger w - eta + v(head), switching only on a gain above
    ``float_tolerance(weights)``.  Both steps pick each state's first
    best edge.  The best policy cycle's mean (math.fsum of its weights over
    its length) is a lower bound on the maximum.  The evaluation works one
    depth layer of the policy at a time (``_evaluate_policy``) and gives
    the bits of a sequential walk: each bias is the same two float
    operations on its successor's bias, from the layer before.

    A check that does not trust the iteration, nor where it started, then
    bounds every cycle mean from above by max(w - v(tail) + v(head)) over
    the edges whose ends share an eta (``_cycle_mean_bound``).  That bound
    must not exceed the policy's value plus the tolerance.  The bound is
    returned when it exceeds the value by more than its own rounding error
    (the iteration stopped within the tolerance of the maximum), the value
    otherwise, so the result dominates every cycle mean up to float
    rounding.  A warm and a cold start have given
    bit-identical results on every outer grid tested, but another optimal
    policy could move the bound in its last ulps.

    Raises PolicyIterationLimitError when ``HOWARD_ITERATION_LIMIT`` is
    reached (policy iteration has no small worst-case bound on its
    iterations), PolicyIterationError when the check fails, NoCycleError on
    acyclic systems.
    """
    if solver is None:
        solver = HowardSolver(system)
    elif solver.system is not system:
        raise ValueError("the solver was prepared for another system")
    return solver.solve(weights)


def tight_edges(system: FiniteMVSystem, weights: Sequence, alpha) -> list[int]:
    """Edge ids whose gap pot(tail) + w - alpha - pot(head) is 0, up to
    ``tie_tolerance(weights)``, under pot = max(0, phi) for the fixpoint phi
    of w - alpha (``_reduced_fixpoint``); cycles inside this subgraph are
    exactly the mean-maximizing cycles."""
    (w, (a,)), _d = scaled(weights, (alpha,))
    tol = tie_tolerance(weights)
    phi = _reduced_fixpoint(system, [wk - a for wk in w], tol)
    pot = [0 if p is None or p < 0 else p for p in phi]
    return [k for k, ((t, h), wk) in enumerate(zip(system.edges, w))
            if abs(pot[t] + wk - a - pot[h]) <= tol]


def _tight_subsystem(system: FiniteMVSystem, weights: Sequence) -> tuple:
    """The maximum cycle mean and the subsystem on the tight edges, whose
    cycles are exactly the mean-maximizing cycles."""
    alpha = max_mean_cycle_value(system, weights)
    edges = [system.edges[k] for k in tight_edges(system, weights, alpha)]
    return alpha, FiniteMVSystem(system.n_states, tuple(edges))


def _shortest_cycle_in(system: FiniteMVSystem) -> Cycle:
    """Canonical minimum-length cycle of a system: shortest, then the
    lexicographically smallest state sequence among shortest ones."""
    succ, pred = system.successors, system.predecessors
    n = system.n_states
    # the shortest cycle through s closes a forward search from s over an
    # edge into s; the first s to reach the minimum length is the least
    # state on a shortest cycle, and starts the canonical one
    best_len, start = None, None
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for x in succ[u]:
                    if dist[x] < 0:
                        dist[x] = dist[u] + 1
                        nxt.append(x)
            frontier = nxt
        through = min([dist[u] + 1 for u in pred[s] if dist[u] >= 0], default=None)
        if through is not None and (best_len is None or through < best_len):
            best_len, start = through, s
    if best_len is None:
        raise NoCycleError("no cycle in the tight subgraph")

    # back[u]: the fewest edges from u to start.  A walk from start that can
    # close within the steps left must take them exactly, or it would close
    # a shorter cycle; such a walk is simple, so the greedy lexicographic
    # walk is the canonical cycle
    back = [-1] * n
    back[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for x in pred[u]:
                if back[x] < 0:
                    back[x] = back[u] + 1
                    nxt.append(x)
        frontier = nxt
    walk = [start]
    for rem in range(best_len - 1, 0, -1):
        walk.append(next(x for x in succ[walk[-1]] if back[x] == rem))
    return Cycle(tuple(walk))


def max_mean_cycle(system: FiniteMVSystem, weights: Sequence) -> tuple:
    """Maximum mean cycle value and the canonical cycle attaining it.

    Ties break to the shortest cycle, then the lexicographically smallest
    state sequence.  Raises NoCycleError on acyclic systems.
    """
    alpha, tight = _tight_subsystem(system, weights)
    return alpha, _shortest_cycle_in(tight)


# ---------------------------------------------------------------------------
# The five formulations


def alpha_state(system: FiniteMVSystem, f: Sequence) -> tuple:
    """Maximum ergodic average of a state function, with a maximizing cycle."""
    return max_mean_cycle(system, lift_function(f, system))


def _segment_maxima(system: FiniteMVSystem, f: Sequence, horizon: int) -> tuple[list, object]:
    """The best sum of f over orbit segments with n steps, for n = 0..horizon
    (None when there is no such segment), in the format of ``scaled``, and
    its D.  Float values must pass ``check_float_range`` for the horizon.

    Round n holds x_n(y), the best sum over segments of n steps ending at y,
    and x_{n+1} = T(x_n) for the max-plus step T(x)(y) = max over edges
    (t, y) of x(t) + f(y) (``_relax``).  T commutes with adding a constant:
    T(x + K) = T(x) + K.  So once x_n = x_m + K for some m < n, induction
    gives x_{j+p} = x_j + K for every j >= m, with p = n - m, and the
    maxima repeat in the same way: maxima[j] = maxima[j - p] + K.  In
    integer format the pass keys each round by x_n less its maximum (None
    stays None) and, at the first key seen before, fills the rest of the
    horizon from that rule.  By the cyclicity theorem of max-plus algebra
    (Baccelli, Cohen, Olsder and Quadrat, 1992) the rounds of a strongly
    connected system repeat so after a transient; on others they may not,
    and every round is relaxed.  The table of keys lives for one call.
    Float sums are not associative, so in float format every round is
    relaxed too."""
    if len(f) != system.n_states:
        raise ValueError("state function length must equal n_states")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    (g,), d = scaled(f)
    if d is None:
        check_float_range(g, system.n_states, horizon)
    weights = [g[h] for _t, h in system.edges]
    cur = g
    best = max(g)
    maxima = [best]
    rounds = None if d is None else {tuple([x - best for x in g]): 0}
    # once every state ends a segment of n >= 1 steps, each has a
    # predecessor, so every state ends one of every later length too
    reached = False
    for n in range(1, horizon + 1):
        cur, prev = [None] * system.n_states, cur
        _relax(system.edges, weights, prev, cur)
        reached = reached or None not in cur
        best = (max(cur) if reached
                else max((x for x in cur if x is not None), default=None))
        maxima.append(best)
        if rounds is None:
            continue
        if best is None:  # no segment has n steps, so none has more
            maxima += [None] * (horizon - n)
            break
        m = rounds.setdefault(tuple([x - best for x in cur] if reached else
                                    [None if x is None else x - best for x in cur]), n)
        if m < n:
            period, shift = n - m, best - maxima[m]
            for j in range(n + 1, horizon + 1):
                maxima.append(maxima[j - period] + shift)
            break
    return maxima, d


def delta_finite_horizon(system: FiniteMVSystem, f: Sequence, n: int):
    """Best average of f over orbit segments with n steps (n+1 states)."""
    maxima, d = _segment_maxima(system, f, n)
    if maxima[n] is None:
        raise NoPathError(f"no orbit segment of length {n}")
    return divide(maxima[n], n + 1, d)


def delta_sequence(system: FiniteMVSystem, f: Sequence, horizon: int) -> list[tuple[int, object]]:
    """(n, delta_n) for all n = 0..horizon in one dynamic-programming pass;
    delta_n is the NEG_INF sentinel when no segment has n steps."""
    maxima, d = _segment_maxima(system, f, horizon)
    return [(n, NEG_INF if best is None else divide(best, n + 1, d))
            for n, best in enumerate(maxima)]


def epsilon_witness(cycle: Cycle, f: Sequence) -> int:
    """Starting offset on the cycle from which every finite prefix average of
    f is at least the cycle mean: rotate to just after the minimum of the
    prefix sums less their share of the mean.

    The values are put in the format of ``_numbers.scaled``; in integers
    each is then taken k times, for a cycle of k states, so that the mean
    is the integer sum of the values and every prefix is an integer.  Float
    values keep the float mean sum / k."""
    (values,), d = scaled([f[x] for x in cycle.states])
    k = len(values)
    if d is None:
        mean = divide(sum(values), k)
    else:
        mean = sum(values)
        values = [k * v for v in values]
    best_i, best_val = 0, 0 * mean
    prefix = best_val
    for i in range(1, k):
        prefix = prefix + values[i - 1] - mean
        if prefix < best_val:
            best_i, best_val = i, prefix
    return best_i


def brute_force_alpha(system: FiniteMVSystem, f: Sequence):
    """Oracle: maximum cycle mean by full simple-cycle enumeration.

    Returns the NEG_INF sentinel on acyclic systems.  Guarded to small state
    counts.  On f in the integer format of ``_numbers.scaled`` a cycle of
    sum s and length k beats the best so far, (S, K), when s K > S k, in
    integers, and only the result is divided; float means are compared as
    the floats s / k.
    """
    if system.n_states > BRUTE_FORCE_STATE_LIMIT:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_STATE_LIMIT} states")
    (g,), d = scaled(f)
    best = None  # (sum, length) of the best cycle so far
    for states in simple_cycles(system):
        total, k = sum([g[x] for x in states]), len(states)
        if best is None or (divide(total, k) > divide(*best) if d is None
                            else total * best[1] > best[0] * k):
            best = total, k
    return NEG_INF if best is None else divide(*best, d)


def maximizing_measures(system: FiniteMVSystem, f: Sequence) -> list[VertexMeasure]:
    """Cycle measures of every mean-maximizing simple cycle, deduplicated and
    sorted; always non-empty when a cycle exists."""
    _alpha, tight = _tight_subsystem(system, lift_function(f, system))
    seen: dict[tuple, VertexMeasure] = {}
    for states in simple_cycles(tight):
        vm, _ = cycle_measure(Cycle(states), system)
        seen.setdefault(vm.weights, vm)
    return [seen[w] for w in sorted(seen)]


# ---------------------------------------------------------------------------
# Report


@dataclass(frozen=True)
class MeaReport:
    """Computed averages for one (system, f) pair: alpha, the canonical
    maximizing cycle, the finite-horizon sequence, the rotation witness and
    the tolerance the maximizing cycle's tie decisions used."""

    alpha: object
    maximizing_cycle: Cycle
    delta_seq: tuple
    epsilon_rotation: int
    tolerance: object


def mea_report(system: FiniteMVSystem, f: Sequence, horizon: int = 64) -> MeaReport:
    weights = lift_function(f, system)
    alpha, cycle = max_mean_cycle(system, weights)
    deltas = tuple(delta_sequence(system, f, horizon))
    rotation = epsilon_witness(cycle, f)
    return MeaReport(alpha, cycle, deltas, rotation, tie_tolerance(weights))
