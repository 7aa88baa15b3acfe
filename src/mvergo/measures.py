"""Invariant measures of finite multi-valued systems.

A probability vector on states is invariant iff it is the common marginal of
some probability weighting on edges whose tail and head marginals agree (an
edge circulation).  Invariance is decided by a transportation feasibility
problem, a max flow on the weights in the format of ``_numbers.scaled``;
every mass and balance check allows ``_numbers.tie_tolerance`` of the
weights, which is 0 for rational ones.  The extreme points of the invariant
set are simple-cycle measures that survive an exact convex-combination
elimination.  Each elimination LP
sees only the candidates supported inside the candidate's own support, over
that support's coordinates, since no other candidate can take part.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._numbers import divide, scaled, tie_tolerance
from .system import FiniteMVSystem, simple_cycles


def _check_mass(weights, what: str) -> None:
    """ValueError unless the weights sum to 1 up to their ``tie_tolerance``."""
    total = sum(weights)
    if abs(total - 1) > tie_tolerance(weights):
        raise ValueError(f"{what} must sum to 1, got {total}")


@dataclass(frozen=True)
class VertexMeasure:
    """Probability weights on states (exact rationals or floats)."""

    weights: tuple

    @classmethod
    def make(cls, weights: Sequence) -> "VertexMeasure":
        w = tuple(weights)
        if any(v < 0 for v in w):
            raise ValueError("measure weights must be non-negative")
        _check_mass(w, "measure weights")
        return cls(w)


@dataclass(frozen=True)
class EdgeCirculation:
    """Probability weights on edges with equal tail and head marginals."""

    weights: tuple

    @classmethod
    def make(cls, system: FiniteMVSystem, weights: Sequence) -> "EdgeCirculation":
        w = tuple(weights)
        if len(w) != len(system.edges):
            raise ValueError("circulation length must equal the edge count")
        if any(v < 0 for v in w):
            raise ValueError("circulation weights must be non-negative")
        _check_mass(w, "circulation weights")
        tol = tie_tolerance(w)
        tail, head = _raw_marginals(system, w)
        for x in range(system.n_states):
            if abs(tail[x] - head[x]) > tol:
                raise ValueError(f"circulation is unbalanced at state {x}")
        return cls(w)


@dataclass(frozen=True)
class Cycle:
    """A simple directed cycle, stored as the state sequence starting at its
    smallest state; consecutive states (wrapping around) are edges."""

    states: tuple[int, ...]

    def __post_init__(self):
        if not self.states:
            raise ValueError("a cycle has at least one state")
        if len(set(self.states)) != len(self.states):
            raise ValueError("cycle states must be distinct")

    def __len__(self):
        return len(self.states)

    def edge_pairs(self) -> list[tuple[int, int]]:
        k = len(self.states)
        return [(self.states[i], self.states[(i + 1) % k]) for i in range(k)]


def validate_cycle(system: FiniteMVSystem, cycle: Cycle) -> None:
    for t, h in cycle.edge_pairs():
        if not system.has_edge(t, h):
            raise ValueError(f"cycle uses missing edge ({t}, {h})")


def _raw_marginals(system: FiniteMVSystem, weights: Sequence):
    tail = [0] * system.n_states
    head = [0] * system.n_states
    for w, (t, h) in zip(weights, system.edges):
        tail[t] = tail[t] + w
        head[h] = head[h] + w
    return tail, head


def marginals(circulation: EdgeCirculation, system: FiniteMVSystem) -> tuple[VertexMeasure, VertexMeasure]:
    """Tail and head marginals of an edge circulation; equal for a valid one."""
    tail, head = _raw_marginals(system, circulation.weights)
    return VertexMeasure.make(tail), VertexMeasure.make(head)


def cycle_measure(cycle: Cycle, system: FiniteMVSystem) -> tuple[VertexMeasure, EdgeCirculation]:
    """Uniform weight 1/k on a simple cycle's edges and its vertex marginal."""
    validate_cycle(system, cycle)
    k = len(cycle)
    share = Fraction(1, k)
    edge_w = [Fraction(0)] * len(system.edges)
    vert_w = [Fraction(0)] * system.n_states
    for t, h in cycle.edge_pairs():
        edge_w[system.edge_index[(t, h)]] += share
        vert_w[t] += share
    return VertexMeasure.make(vert_w), EdgeCirculation.make(system, edge_w)


def _max_flow(n_nodes: int, arcs: list[tuple[int, int, object]], source: int, sink: int):
    """Edmonds-Karp max flow over capacities of one number type.  Returns
    (value, flow-per-arc); the flow on an arc no path uses is a zero of the
    arc's capacity type."""
    # adjacency of arc ids; residual capacity per directed arc + reverse arc
    cap = []
    to = []
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for u, v, c in arcs:
        adj[u].append(len(cap))
        to.append(v)
        cap.append(c)
        adj[v].append(len(cap))
        to.append(u)
        cap.append(0 * c)
    value = 0
    while True:
        parent_arc = [-1] * n_nodes
        parent_arc[source] = -2
        queue = deque([source])
        while queue and parent_arc[sink] == -1:
            u = queue.popleft()
            for a in adj[u]:
                v = to[a]
                if parent_arc[v] == -1 and cap[a] > 0:
                    parent_arc[v] = a
                    queue.append(v)
        if parent_arc[sink] == -1:
            break
        # bottleneck along the path
        bottleneck = None
        v = sink
        while v != source:
            a = parent_arc[v]
            bottleneck = cap[a] if bottleneck is None else min(bottleneck, cap[a])
            v = to[a ^ 1]
        v = sink
        while v != source:
            a = parent_arc[v]
            cap[a] -= bottleneck
            cap[a ^ 1] += bottleneck
            v = to[a ^ 1]
        value += bottleneck
    flows = [cap[2 * i + 1] for i in range(len(arcs))]
    return value, flows


def is_invariant(system: FiniteMVSystem, mu: VertexMeasure) -> tuple[bool, EdgeCirculation | None]:
    """Decide invariance of a vertex measure; return a witness circulation.

    Feasibility of the transportation problem on the bipartite tails/heads
    graph: supply mu(x) at each tail, demand mu(y) at each head, infinite
    capacity on the edges of the system.  Feasible iff the max flow moves the
    whole unit of mass, up to ``tie_tolerance`` of the weights.  Rational
    weights run as integers over their common denominator D, so the flow is
    exact and the witness is the flow over D.
    """
    w = mu.weights
    if len(w) != system.n_states:
        raise ValueError("measure length must equal n_states")
    _check_mass(w, "measure")
    n = system.n_states
    (mass,), d = scaled(w)
    # the unit of mass in the flow's numbers: D, or 1.0 for float weights
    unit = d or 1.0
    source, sink = 2 * n, 2 * n + 1
    arcs: list[tuple[int, int, object]] = []
    for x in range(n):
        if mass[x] > 0:
            arcs.append((source, x, mass[x]))
    inner_start = len(arcs)
    for t, h in system.edges:
        arcs.append((t, n + h, 2 * unit))
    for y in range(n):
        if mass[y] > 0:
            arcs.append((n + y, sink, mass[y]))
    value, flows = _max_flow(2 * n + 2, arcs, source, sink)
    # the tolerance is nonzero only for float weights, whose unit is 1.0
    if abs(unit - value) > tie_tolerance(w):
        return False, None
    edge_w = [divide(x, 1, d) for x in flows[inner_start:inner_start + len(system.edges)]]
    return True, EdgeCirculation.make(system, edge_w)


def invariant_by_subsets(system: FiniteMVSystem, mu: VertexMeasure) -> bool:
    """Independent invariance test: mu(A) <= mu(T^{-1} A) over every subset A.

    Hall's condition for the transportation problem, decided without any
    flow.  Weights are scaled to integers over their common denominator
    (a float is an exact binary rational), so the decision is exact on the
    given weights.  One pass over the bitmasks builds each subset's mass and
    preimage from the subset without its lowest state.  Exponential in
    n_states; guarded to small systems.  Used as the oracle against the
    flow-based decision.
    """
    n = system.n_states
    if n > 16:
        raise ValueError("subset oracle is limited to n_states <= 16")
    (mass_of,), _ = scaled([Fraction(v) for v in mu.weights])
    predmask = [sum(1 << t for t in preds) for preds in system.predecessors]
    size = 1 << n
    mass = [0] * size
    pre = [0] * size
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        mass[mask] = mass[rest] + mass_of[low]
        pre[mask] = pre[rest] | predmask[low]
    return all(mass[mask] <= mass[pre[mask]] for mask in range(1, size))


def convex_combination(target, points):
    """Exact convex-combination witness: weights lambda >= 0 summing to 1 with
    sum(lambda_j * points_j) = target, or None when infeasible.

    Phase-1 simplex over Fractions with Bland's rule.
    """
    if not points:
        return None
    dim = len(target)
    m = len(points)
    # constraint rows: coordinates, then the convex-combination row (sum = 1)
    rows = []
    for i in range(dim):
        rows.append([Fraction(p[i]) for p in points] + [Fraction(target[i])])
    rows.append([Fraction(1)] * m + [Fraction(1)])
    n_rows = dim + 1
    # artificial columns form the initial basis
    width = m + n_rows + 1
    tab = []
    for r, row in enumerate(rows):
        line = row[:-1] + [Fraction(0)] * n_rows + [row[-1]]
        line[m + r] = Fraction(1)
        tab.append(line)
    basis = [m + r for r in range(n_rows)]
    # objective: minimize the artificial sum, expressed over nonbasic columns
    z = [Fraction(0)] * (width - 1)
    zval = Fraction(0)
    for r in range(n_rows):
        for j in range(m):
            z[j] += tab[r][j]
        zval += tab[r][-1]
    while True:
        enter = -1
        for j in range(width - 1):
            if z[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave, best = -1, None
        for r in range(n_rows):
            a = tab[r][enter]
            if a > 0:
                ratio = tab[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        if leave < 0:
            raise RuntimeError("phase-1 simplex cannot be unbounded")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for r in range(n_rows):
            if r != leave and tab[r][enter] != 0:
                f = tab[r][enter]
                tab[r] = [v - f * p for v, p in zip(tab[r], tab[leave])]
        f = z[enter]
        z = [v - f * p for v, p in zip(z, tab[leave][:-1])]
        zval -= f * tab[leave][-1]
        basis[leave] = enter
    if zval != 0:
        return None
    weights = [Fraction(0)] * m
    for r in range(n_rows):
        if basis[r] < m:
            weights[basis[r]] = tab[r][-1]
    return weights


def extreme_invariant_measures(system: FiniteMVSystem) -> list[VertexMeasure]:
    """Extreme points of the set of invariant measures, exactly.

    Every extreme point is the vertex-projection of a simple-cycle
    circulation, which is uniform, 1/|S|, on the cycle's state set S; so the
    distinct candidates are exactly the distinct state sets, and candidates
    are keyed by state set before any rational arithmetic.  A candidate mu_S
    is eliminated when it is a convex combination of the others, decided by
    an exact feasibility test restricted to what can take part:

    - if mu_S = sum_j lambda_j mu_j with every lambda_j >= 0, then for each
      x outside S, 0 = mu_S(x) >= lambda_j mu_j(x), so every mu_j with
      lambda_j > 0 is supported inside S;
    - only mu_S itself has support exactly S, so the columns are the
      candidates whose support is a proper subset of S;
    - those columns and the target vanish off S, so the coordinates outside
      S carry no constraint and are dropped.

    A candidate survives with no LP at all when the supports inside S do not
    cover S, since some state of S would get no mass.  Empty when no cycle
    exists.
    """
    n = system.n_states
    supports = sorted(
        (tuple(Fraction(1, len(states)) if x in states else Fraction(0) for x in range(n)),
         sum(1 << x for x in states))
        for states in {frozenset(c) for c in simple_cycles(system)}
    )
    survivors = []
    for weights, support in supports:
        inside = [(w, s) for w, s in supports if s != support and s & support == s]
        covered = 0
        for _, s in inside:
            covered |= s
        if covered == support:
            coords = [x for x in range(n) if support >> x & 1]
            target = [weights[x] for x in coords]
            columns = [[w[x] for x in coords] for w, _ in inside]
            if convex_combination(target, columns) is not None:
                continue
        survivors.append(VertexMeasure(weights))
    return survivors
