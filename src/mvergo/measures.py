"""Invariant measures of finite multi-valued systems.

A probability vector on states is invariant iff it is the common marginal of
some probability weighting on edges whose tail and head marginals agree (an
edge circulation).  Invariance is decided by a transportation feasibility
problem, a max flow on the weights in the format of ``_numbers.scaled``.
Every mass and balance check adds the weights in that format too, so
rational weights are decided exactly as integers, and float ones within
``_numbers.tie_tolerance``.  The extreme points of the invariant set are
simple-cycle measures that survive an exact convex-combination elimination:
a phase-1 simplex run fraction-free, on integers over one running
denominator.  Each elimination LP sees only the candidates supported inside
the candidate's own support, over that support's coordinates, since no other
candidate can take part.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._numbers import InputTooLargeError, divide, scaled, tie_tolerance
from .system import FiniteMVSystem, simple_cycles

# distinct cycle supports that extreme_invariant_measures eliminates at most:
# each support's LP sees every support inside it, so the work grows faster
# than the square of their number (on a 2-core x86 host, 779 supports of a
# random 16-state graph took 8 s, 1272 of a 20-state graph 26 s)
MEASURE_SUPPORT_LIMIT = 1000


class TooManySupportsError(InputTooLargeError):
    """The graph has more distinct cycle supports than ``MEASURE_SUPPORT_LIMIT``."""

    def __init__(self, limit: int):
        super().__init__(f"more than {limit} distinct cycle supports, the most "
                         "the extreme-measure elimination takes")
        self.limit = limit


def _check_total(nums, d, tol, what: str) -> None:
    """ValueError unless weights in the format of ``scaled`` (D = d) sum to
    1 within tol; rational weights sum as integers to D, an exact test."""
    total = sum(nums)
    if abs(total - (d or 1)) > tol:
        raise ValueError(f"{what} must sum to 1, got {divide(total, 1, d)}")


def _check_mass(weights, what: str) -> tuple:
    """ValueError unless the weights sum to 1 up to their ``tie_tolerance``;
    else the weights in the format of ``scaled``, and D."""
    (nums,), d = scaled(weights)
    _check_total(nums, d, tie_tolerance(weights), what)
    return nums, d


def _check_circulation(system: FiniteMVSystem, nums, d, tol) -> None:
    """ValueError unless edge weights in the format of ``scaled`` (D = d)
    are one per edge, non-negative, sum to 1 and have equal tail and head
    marginals, the last two within tol (0 for rational weights)."""
    if len(nums) != len(system.edges):
        raise ValueError("circulation length must equal the edge count")
    if any(v < 0 for v in nums):
        raise ValueError("circulation weights must be non-negative")
    _check_total(nums, d, tol, "circulation weights")
    tail, head = _raw_marginals(system, nums)
    for x in range(system.n_states):
        if abs(tail[x] - head[x]) > tol:
            raise ValueError(f"circulation is unbalanced at state {x}")


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
        (nums,), d = scaled(w)
        _check_circulation(system, nums, d, tie_tolerance(w))
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
    exact and the witness is the flow over D: the flow passes the checks of
    ``EdgeCirculation.make`` in its own integers, then each edge is divided
    once.
    """
    w = mu.weights
    if len(w) != system.n_states:
        raise ValueError("measure length must equal n_states")
    mass, d = _check_mass(w, "measure")
    n = system.n_states
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
    inner = flows[inner_start:inner_start + len(system.edges)]
    _check_circulation(system, inner, d, tie_tolerance(inner))
    return True, EdgeCirculation(tuple([divide(x, 1, d) for x in inner]))


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

    Phase-1 simplex with Bland's rule, fraction-free (Edmonds 1967, Bareiss
    1968).  The target and point values go over one common denominator D in
    the format of ``_numbers.scaled`` (a float as its exact binary rational):
    each coordinate row and the convex-combination row, times D, is a row of
    integers, with a unit artificial column.  The tableau is held as integers
    M over one running denominator den, 1 at the start.  A pivot on
    p = M[leave][enter] keeps the leaving row, replaces every other row and
    the objective by (p * row - row[enter] * pivot_row) // den, and sets
    den = p.  The division is exact: by Cramer's rule each entry is a minor
    of the initial integer tableau (the objective counted as one more row)
    and den is the basis determinant, positive since every pivot is.

    The pivots are those of the same simplex on the rows as given.  The rows
    times D are the same LP with D times each artificial as its variable and
    D times the phase-1 objective.  At every basis its tableau differs from
    the unscaled one by positive factors only (D on a row whose basic
    variable is artificial, 1/D on an artificial column), and its objective
    row is D times the old one on the point columns and equal to it on the
    artificial ones.  So every reduced cost and every entering-column entry
    keeps its sign, and the ratios within a column keep their order and
    their ties, compared by cross-multiplication.  Bland's rule (the first
    improving column; the least ratio, ties to the lowest basis index) takes
    the same pivots, and the weights rhs / den are the same Fractions.
    """
    if not points:
        return None
    dim = len(target)
    m = len(points)
    groups = (target, *points)
    (rhs, *cols), d = scaled(*groups)
    if d is None:  # floats, as their exact binary rationals
        (rhs, *cols), d = scaled(*[[Fraction(v) for v in g] for g in groups])
    # coordinate rows, then the convex-combination row (sum = 1); the
    # artificial columns form the initial basis, the last column is the rhs
    rows = [[c[i] for c in cols] + [rhs[i]] for i in range(dim)] + [[d] * (m + 1)]
    n_rows = dim + 1
    tab = []
    for r, row in enumerate(rows):
        line = row[:-1] + [0] * n_rows + row[-1:]
        line[m + r] = 1
        tab.append(line)
    basis = list(range(m, m + n_rows))
    # objective: minimize the artificial sum, expressed over nonbasic columns
    # (the column sums, 0 on the artificials); its last entry is the sum itself
    z = [sum(col) for col in zip(*tab)]
    z[m:-1] = [0] * n_rows
    den = 1
    while True:
        enter = next((j for j in range(m + n_rows) if z[j] > 0), -1)
        if enter < 0:
            break
        leave = -1
        for r, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave = r
                    continue
                # row[-1] / a against the least ratio so far, cross-multiplied
                ratio, least = row[-1] * tab[leave][enter], tab[leave][-1] * a
                if ratio < least or (ratio == least and basis[r] < basis[leave]):
                    leave = r
        if leave < 0:
            raise RuntimeError("phase-1 simplex cannot be unbounded")
        pivot_row = tab[leave]
        p = pivot_row[enter]
        for r, row in enumerate(tab):
            if r != leave:
                f = row[enter]
                tab[r] = [(p * v - f * w) // den for v, w in zip(row, pivot_row)]
        f = z[enter]
        z = [(p * v - f * w) // den for v, w in zip(z, pivot_row)]
        den = p
        basis[leave] = enter
    if z[-1] != 0:
        return None
    weights = [Fraction(0)] * m
    for r, j in enumerate(basis):
        if j < m:
            weights[j] = Fraction(tab[r][-1], den)
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
    exists.  Raises ``TooManySupportsError`` before any LP when there are
    more than ``MEASURE_SUPPORT_LIMIT`` distinct supports.
    """
    n = system.n_states
    state_sets = {frozenset(c) for c in simple_cycles(system)}
    if len(state_sets) > MEASURE_SUPPORT_LIMIT:
        raise TooManySupportsError(MEASURE_SUPPORT_LIMIT)
    # the candidates in the order of their weight vectors, by the integer
    # key of ``_support_key``; Fractions only for the LPs and the survivors
    share = [Fraction(0)] + [Fraction(1, k) for k in range(1, n + 1)]

    def weights(size: int, support: int, coords) -> list[Fraction]:
        return [share[size] if support >> x & 1 else share[0] for x in coords]

    supports = [(len(states), sum(1 << x for x in states))
                for states in sorted(state_sets, key=lambda states: _support_key(states, n))]
    survivors = []
    for size, support in supports:
        inside = [(k, s) for k, s in supports if s != support and s & support == s]
        covered = 0
        for _, s in inside:
            covered |= s
        if covered == support:
            coords = [x for x in range(n) if support >> x & 1]
            columns = [weights(k, s, coords) for k, s in inside]
            if convex_combination(weights(size, support, coords), columns) is not None:
                continue
        survivors.append(VertexMeasure(tuple(weights(size, support, range(n)))))
    return survivors


def _support_key(states, n: int) -> tuple[int, ...]:
    """An integer key that orders cycle supports S as their measures'
    weight vectors (1/|S| on S, 0 elsewhere) order: n + 1 - |S| on S, 0
    elsewhere, a positive value that falls as 1/|S| does."""
    return tuple([n + 1 - len(states) if x in states else 0 for x in range(n)])
