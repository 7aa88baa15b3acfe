"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's algorithmic paths: cycles come from a
plain DFS, invariance from the subset characterization and from a max flow
in ``Fraction`` arithmetic, extreme measures from active-set vertex
enumeration of the inequality polytope and from the elimination LP over
every other candidate (a ``Fraction`` simplex), the potential from explicit
backward-walk enumeration, exact and float cycle means from Karp's walk
table, the float Howard solver's policy values from one sequential walk of
the policy (the solver's evaluator before it worked in depth layers), the
exact solver's start from each state's heaviest edge alone, the horizon
maxima from every round of the max-plus step (the pass before it stopped
at a repeat),
periodic orbits of circle systems from a rational lift search, the
Sturmian orbits from the Christoffel words alone, and orbit tables from the
per-word orbit path, divided as Python ints.
Convex hulls, Sturmian arcs, barycentres and the orbit order are decided in
``Fraction`` arithmetic, where the package works in integers, and orbits are
re-validated by exact forward iteration of their ``Fraction`` points.
``flatten_blocks`` turns the orbit visitor's blocks into the rows the orbit
oracle produces, ``orbit_over_lcm`` puts a list of exact points into the
package's integer orbit format, and ``fraction_points`` reads them back as
``Fraction``s.  The subaction certificate (``fraction_compute_v``,
``fraction_verify_mane``), the rotation witness and the brute-force
maximum work in ``Fraction`` means and slacks, where the package adds and
compares ``scaled`` integers.  ``reversed_system``, ``marginals`` and
``is_convex_polygon`` check properties that no command needs computed.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from mvergo._numbers import NEG_INF, check_float_range, divide, scaled, tie_tolerance
from mvergo.bounds import GridModel, OrbitTable
from mvergo.circle import (
    PeriodicOrbit,
    PiecewiseAffineMVSystem,
    _integer_branches,
    _visit_words,
    _word_orbits,
    visit_periodic_orbits,
)
from mvergo.mea import (
    BRUTE_FORCE_STATE_LIMIT,
    HowardSolver,
    NoCycleError,
    _policy_values,
    _policy_walk,
    _relax,
)
from mvergo.measures import (
    Cycle,
    EdgeCirculation,
    VertexMeasure,
    cycle_measure,
)
from mvergo.subaction import BetaNotAttainedError, SubactionResult, ViolatedEdgeError
from mvergo.system import FiniteMVSystem, eventual_domain, simple_cycles


def z4_system() -> FiniteMVSystem:
    edges = [(x, (x + 1) % 4) for x in range(4)] + [(x, (x - 1) % 4) for x in range(4)]
    return FiniteMVSystem.make(4, edges)


def identity_system(n: int) -> FiniteMVSystem:
    return FiniteMVSystem.make(n, [(x, x) for x in range(n)])


def reversed_system(system: FiniteMVSystem) -> FiniteMVSystem:
    """The reversed relation: x is a successor of y iff y was one of x."""
    return FiniteMVSystem.make(system.n_states, ((h, t) for t, h in system.edges))


def dfs_simple_cycles(system: FiniteMVSystem) -> list[tuple[int, ...]]:
    """All simple cycles by plain DFS, rooted at each cycle's smallest state."""
    out: list[tuple[int, ...]] = []
    succ = system.successors

    def extend(start: int, path: list[int], seen: set[int]):
        for nxt in succ[path[-1]]:
            if nxt == start:
                out.append(tuple(path))
            elif nxt > start and nxt not in seen:
                seen.add(nxt)
                path.append(nxt)
                extend(start, path, seen)
                path.pop()
                seen.discard(nxt)

    for s in range(system.n_states):
        extend(s, [s], {s})
    return sorted(out, key=lambda c: (len(c), c))


def gauss_solve(matrix, rhs):
    """Exact solve of a square system; None when singular.

    Integer inputs go through fraction-free Bareiss elimination (fast inner
    loop, exact divisions); anything else falls back to rational pivoting.
    """
    n = len(matrix)
    if all(isinstance(v, int) for row in matrix for v in row) and all(
        isinstance(b, int) for b in rhs
    ):
        a = [list(row) + [b] for row, b in zip(matrix, rhs)]
        prev = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                return None
            a[col], a[pivot] = a[pivot], a[col]
            piv = a[col][col]
            base = a[col]
            for r in range(col + 1, n):
                row = a[r]
                factor = row[col]
                for j in range(col, n + 1):
                    row[j] = (row[j] * piv - factor * base[j]) // prev
            prev = piv
        xs: list = [None] * n
        for i in reversed(range(n)):
            acc = Fraction(a[i][n])
            for j in range(i + 1, n):
                acc -= a[i][j] * xs[j]
            xs[i] = acc / a[i][i]
        return xs
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * p for v, p in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def polytope_extreme_measures(system: FiniteMVSystem, combo_cap: int = 250_000):
    """Vertices of {mu >= 0, sum mu = 1, mu(A) <= mu(T^-1 A) for all A},
    by brute-force enumeration of active constraint sets.

    This is the subset characterization of invariance, so the vertex list is
    an independent oracle for extreme_invariant_measures.  Returns None when
    the instance is too big for the combinatorial search.
    """
    n = system.n_states
    pred = system.predecessors
    rows: set[tuple[int, ...]] = set()
    for x in range(n):
        unit = [0] * n
        unit[x] = 1
        rows.add(tuple(unit))
    for mask in range(1, 1 << n):  # the full set matters: mu(X) <= mu(T^-1 X)
        members = [x for x in range(n) if mask >> x & 1]
        preimage = set()
        for x in members:
            preimage.update(pred[x])
        row = [0] * n
        for x in preimage:
            row[x] += 1
        for x in members:
            row[x] -= 1
        if any(row):
            rows.add(tuple(row))
    row_list = sorted(rows)
    from math import comb

    if comb(len(row_list), n - 1) > combo_cap:
        return None
    ones = [1] * n
    rhs = [1] + [0] * (n - 1)
    vertices = set()
    rejected = set()
    for active in combinations(row_list, n - 1):
        sol = gauss_solve([ones, *active], rhs)
        if sol is None:
            continue
        key = tuple(sol)
        if key in vertices or key in rejected:
            continue
        if any(v < 0 for v in sol) or any(
            sum(r * v for r, v in zip(row, sol)) < 0 for row in row_list
        ):
            rejected.add(key)
        else:
            vertices.add(key)
    return sorted(vertices)


def rational_rank(rows) -> int:
    """Exact rank of a rational matrix."""
    a = [[Fraction(v) for v in row] for row in rows]
    if not a:
        return 0
    n_cols = len(a[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = a[rank][col]
        a[rank] = [v / inv for v in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * p for v, p in zip(a[r], a[rank])]
        rank += 1
    return rank


def invariance_constraint_rows(system: FiniteMVSystem):
    """All inequality rows of the invariance polytope: coordinate rows and
    the subset rows mu(T^-1 A) - mu(A) >= 0 (full set included)."""
    n = system.n_states
    pred = system.predecessors
    rows: set[tuple[int, ...]] = set()
    for x in range(n):
        unit = [0] * n
        unit[x] = 1
        rows.add(tuple(unit))
    for mask in range(1, 1 << n):
        members = [x for x in range(n) if mask >> x & 1]
        preimage = set()
        for x in members:
            preimage.update(pred[x])
        row = [0] * n
        for x in preimage:
            row[x] += 1
        for x in members:
            row[x] -= 1
        if any(row):
            rows.add(tuple(row))
    return sorted(rows)


def vertex_certificate(system: FiniteMVSystem, weights) -> bool:
    """Exact vertex test: the constraints active at the point (subset rows at
    equality, zero coordinates, and the mass equality) span full rank."""
    n = system.n_states
    active = [[1] * n]
    for row in invariance_constraint_rows(system):
        if sum(r * w for r, w in zip(row, weights)) == 0:
            active.append(list(row))
    return rational_rank(active) == n


def subset_loop_invariance(system: FiniteMVSystem, mu: VertexMeasure) -> bool:
    """Reference for ``measures.invariant_by_subsets``: mu(A) <= mu(T^{-1} A)
    checked subset by subset, summing the weights over a set per subset."""
    n = system.n_states
    if n > 16:
        raise ValueError("subset oracle is limited to n_states <= 16")
    w = mu.weights
    pred = system.predecessors
    for mask in range(1, 1 << n):
        members = [x for x in range(n) if mask >> x & 1]
        mass_a = sum(w[x] for x in members)
        preimage = set()
        for x in members:
            preimage.update(pred[x])
        mass_pre = sum(w[x] for x in preimage)
        if mass_a > mass_pre:
            return False
    return True


def marginals(circulation: EdgeCirculation, system: FiniteMVSystem) -> tuple[VertexMeasure, VertexMeasure]:
    """Tail and head marginals of an edge circulation, each summed edge by
    edge; equal for a valid one."""
    tail = [0] * system.n_states
    head = [0] * system.n_states
    for w, (t, h) in zip(circulation.weights, system.edges):
        tail[t] += w
        head[h] += w
    return VertexMeasure.make(tail), VertexMeasure.make(head)


def fraction_max_flow(n_nodes: int, arcs, source: int, sink: int):
    """Edmonds-Karp max flow over ``Fraction`` capacities.  Returns (value,
    flow-per-arc)."""
    cap = []
    to = []
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for u, v, c in arcs:
        adj[u].append(len(cap))
        to.append(v)
        cap.append(c)
        adj[v].append(len(cap))
        to.append(u)
        cap.append(Fraction(0))
    value = Fraction(0)
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
    return value, [cap[2 * i + 1] for i in range(len(arcs))]


def fraction_is_invariant(system: FiniteMVSystem, mu: VertexMeasure):
    """Reference for ``measures.is_invariant`` on rational weights: the same
    transportation max flow, run in ``Fraction`` arithmetic."""
    w = mu.weights
    n = system.n_states
    source, sink = 2 * n, 2 * n + 1
    arcs = [(source, x, Fraction(w[x])) for x in range(n) if w[x] > 0]
    inner_start = len(arcs)
    arcs += [(t, n + h, Fraction(2)) for t, h in system.edges]
    arcs += [(n + y, sink, Fraction(w[y])) for y in range(n) if w[y] > 0]
    value, flows = fraction_max_flow(2 * n + 2, arcs, source, sink)
    if value != 1:
        return False, None
    return True, EdgeCirculation.make(system, flows[inner_start:inner_start + len(system.edges)])


def fraction_convex_combination(target, points):
    """Reference for ``measures.convex_combination``: weights lambda >= 0
    summing to 1 with sum(lambda_j * points_j) = target, or None when
    infeasible, by the same phase-1 simplex with Bland's rule over
    ``Fraction`` tableau entries."""
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


def unfiltered_extreme_measures(system: FiniteMVSystem) -> list[VertexMeasure]:
    """Reference for ``measures.extreme_invariant_measures``: one elimination
    LP per simple-cycle projection over every other projection and every
    coordinate."""
    cycles = simple_cycles(system)
    seen: dict[tuple, VertexMeasure] = {}
    for states in cycles:
        vm, _ = cycle_measure(Cycle(states), system)
        seen.setdefault(vm.weights, vm)
    candidates = sorted(seen)
    survivors = []
    for i, weights in enumerate(candidates):
        others = [c for j, c in enumerate(candidates) if j != i]
        if fraction_convex_combination(weights, others) is None:
            survivors.append(seen[weights])
    return survivors


def phi_backward_oracle(system: FiniteMVSystem, f_edge, beta, max_len=None):
    """phi by explicit enumeration of walks (exponential; tiny systems only).

    Enumerates every walk of length 1..max_len from every start state and
    records, per end state, the best reduced sum; with max_len >= n_states
    and no positive reduced cycle this equals phi (None encodes -infinity).
    """
    n = system.n_states
    if max_len is None:
        max_len = n + 2
    results: list = [None] * n

    def forward(x: int, remaining: int, total):
        for k in system.out_edge_ids[x]:
            _t, h = system.edges[k]
            new_total = total + f_edge[k] - beta
            if results[h] is None or new_total > results[h]:
                results[h] = new_total
            if remaining > 1:
                forward(h, remaining - 1, new_total)

    for start in range(n):
        forward(start, max_len, Fraction(0))
    return results


def per_orbit_orbit_table(system: PiecewiseAffineMVSystem, max_period: int) -> OrbitTable:
    """Reference for ``bounds.orbit_table``: the orbits of the per-word
    integer path (``_visit_words``, which shares no code with the batched
    blocks), read row by row, each point divided as Python ints, and each
    barycentre summed with ``cmath.exp``."""
    letters: list[int] = []
    periods: list[int] = []
    points: list[float] = []
    centres: list[complex] = []
    blocks: list = []
    unit, rows = _integer_branches(system)
    for k in range(1, max_period + 1):
        _visit_words(k, rows, unit, lambda *block: blocks.append(block))
    for word, numerators, denom in flatten_blocks(blocks):
        letters.extend(word)
        periods.append(len(word))
        xs = [x / denom for x in numerators]
        points.extend(xs)
        centres.append(sum(cmath.exp(2j * cmath.pi * x) for x in xs) / len(xs))
    period_arr = np.array(periods)
    starts = np.concatenate(([0], np.cumsum(period_arr)[:-1]))
    return OrbitTable(system, np.array(letters), np.array(points), starts, period_arr,
                      np.array([(z.real, z.imag) for z in centres]).reshape(-1, 2))


def full_scan_beta_lower(table: OrbitTable, f) -> tuple[float, PeriodicOrbit]:
    """Reference for ``bounds.beta_lower``: f at every point of the table,
    every row's mean by ``np.add.reduceat`` (summed again at the scale
    2^-k where the sum overflows, and held to the row's largest value), and
    the first row of the largest mean, for every function family alike."""
    values = f.values(table.points)
    with np.errstate(over="ignore"):
        sums = np.add.reduceat(values, table.starts)
    means = sums / table.periods
    over = ~np.isfinite(sums)
    if over.any():
        k = int(table.periods.max()).bit_length()
        scaled = np.add.reduceat(np.ldexp(values, -k), table.starts)[over]
        means[over] = np.ldexp(scaled / table.periods[over], k)
    np.minimum(means, np.maximum.reduceat(values, table.starts), out=means)
    idx = int(np.argmax(means))
    return float(means[idx]), table.orbit(idx)


def karp_max_mean_cycle_value(system: FiniteMVSystem, weights) -> Fraction:
    """Maximum cycle mean by Karp's theorem, exactly: an (n+1) x n table of
    best walk weights from a virtual source joined to every state, in
    integers over the weights' common denominator (a float weight counts as
    its exact binary rational).  O(n m) time and O(n^2) memory."""
    exact = [Fraction(x) for x in weights]
    d = math.lcm(*[x.denominator for x in exact])
    w = [x.numerator * (d // x.denominator) for x in exact]
    n = system.n_states
    rows = [[0] * n]
    for _ in range(n):
        prev, cur = rows[-1], [None] * n
        for (t, h), wk in zip(system.edges, w):
            if prev[t] is not None and (cur[h] is None or prev[t] + wk > cur[h]):
                cur[h] = prev[t] + wk
        rows.append(cur)
    # means as pairs (num, k) standing for num / k, compared by cross
    # multiplication
    best = None
    for v, top in enumerate(rows[n]):
        if top is None:
            continue
        worst = None
        for j in range(n):
            if rows[j][v] is not None:
                mean = (top - rows[j][v], n - j)
                if worst is None or mean[0] * worst[1] < worst[0] * mean[1]:
                    worst = mean
        if best is None or worst[0] * best[1] > best[0] * worst[1]:
            best = worst
    if best is None:
        raise NoCycleError("the system has no directed cycle")
    return Fraction(best[0], best[1] * d)


def heaviest_edge_policy(outs: list[list[int]], head: list[int], w: list[int]) -> list[int]:
    """Reference start for ``mea._howard_exact``: each state's first
    heaviest out-edge, -1 for a state without out-edges (the solver's start
    before it looked one step ahead)."""
    return [max(ks, key=w.__getitem__) if ks else -1 for ks in outs]


def full_round_segment_maxima(system: FiniteMVSystem, f, horizon: int) -> tuple[list, object]:
    """Reference for ``mea._segment_maxima``: every round of the max-plus
    step up to the horizon, in either number format."""
    if len(f) != system.n_states:
        raise ValueError("state function length must equal n_states")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    (g,), d = scaled(f)
    if d is None:
        check_float_range(g, system.n_states, horizon)
    weights = [g[h] for _t, h in system.edges]
    cur = g
    maxima = [max(g)]
    for _ in range(horizon):
        cur, prev = [None] * system.n_states, cur
        _relax(system.edges, weights, prev, cur)
        maxima.append(max((x for x in cur if x is not None), default=None))
    return maxima, d


def walk_evaluate_policy(succ: list[int], cost: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Float eta and v (``_policy_values``) of a policy on all states; a
    cycle's mean is math.fsum of its costs over its length."""
    cycles, order = _policy_walk(succ, range(len(succ)))
    means = [math.fsum([cost[y] for y in cycle]) / len(cycle) for cycle in cycles]
    eta, v = _policy_values(succ, cost, cycles, means, order, 0.0)
    return np.array(eta), np.array(v)


def karp_max_mean_cycle_value_float(system: FiniteMVSystem, weights) -> float:
    """Maximum cycle mean by Karp's theorem on a vectorized (n+1) x n table of
    best walk weights: O(n m) time and O(n^2) memory."""
    n = system.n_states
    edges = np.asarray(system.edges, dtype=np.int64)
    if edges.size == 0:
        raise NoCycleError("the system has no directed cycle")
    order = np.lexsort((edges[:, 0], edges[:, 1]))
    tails = edges[order, 0]
    heads = edges[order, 1]
    w = np.asarray(weights, dtype=np.float64)[order]
    head_vals, head_starts = np.unique(heads, return_index=True)
    rows = np.full((n + 1, n), -np.inf)
    rows[0, :] = 0.0
    for j in range(1, n + 1):
        cand = rows[j - 1, tails] + w
        seg = np.maximum.reduceat(cand, head_starts)
        rows[j, head_vals] = seg
    last = rows[n]
    finite = last > -np.inf
    if not finite.any():
        raise NoCycleError("the system has no directed cycle")
    with np.errstate(invalid="ignore"):
        spans = (n - np.arange(n)).astype(np.float64)
        ratios = (last[None, finite] - rows[:n, finite]) / spans[:, None]
    ratios[np.isnan(ratios)] = np.inf  # -inf minus -inf: no walk of that length
    ratios[rows[:n, finite] == -np.inf] = np.inf
    return float(np.min(ratios, axis=0).max())


def _interval_intersect(lo1, hi1, lo2, hi2):
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    return (lo, hi) if lo <= hi else None


def _preimage_window(a: Fraction, b: Fraction, lo: Fraction, hi: Fraction):
    """Solve lo <= a*x + b <= hi for x (a != 0)."""
    x1 = (lo - b) / a
    x2 = (hi - b) / a
    return (x1, x2) if x1 <= x2 else (x2, x1)


def _lift_search(system: PiecewiseAffineMVSystem, itinerary: tuple[int, ...],
                 candidates: list[Fraction]) -> None:
    """DFS over integer lifts of wrapping branches, pruning with the
    feasibility interval of the starting point."""
    k = len(itinerary)
    first = system.branches[itinerary[0]]
    one = Fraction(1)

    def descend(step: int, a: Fraction, b: Fraction, lo: Fraction, hi: Fraction):
        # invariant: x_step = a*x0 + b for feasible x0 in [lo, hi]
        if step == k:
            x0 = b / (1 - a)
            if lo <= x0 <= hi:
                candidates.append(x0)
            return
        branch = system.branches[itinerary[step]]
        clipped = _interval_intersect(lo, hi, *_preimage_window(a, b, branch.lo, branch.hi))
        if clipped is None:
            return
        lo, hi = clipped
        a2 = branch.slope * a
        b2 = branch.slope * b + branch.offset
        if not branch.wraps:
            descend(step + 1, a2, b2, lo, hi)
            return
        img_lo, img_hi = sorted((a2 * lo + b2, a2 * hi + b2))
        for m in range(math.floor(img_lo), math.floor(img_hi) + 1):
            clipped = _interval_intersect(lo, hi, *_preimage_window(a2, b2 - m, Fraction(0), one))
            if clipped is not None:
                descend(step + 1, a2, b2 - m, *clipped)

    descend(0, one, Fraction(0), first.lo, first.hi)


def _solve_itinerary(system: PiecewiseAffineMVSystem,
                     itinerary: tuple[int, ...]) -> list[tuple[Fraction, ...]]:
    """Exact fixed points of the composed branch map along one itinerary,
    ascending, each confirmed by exact forward iteration."""
    candidates: list[Fraction] = []
    if any(system.branches[c].wraps for c in itinerary):
        _lift_search(system, itinerary, candidates)
    else:  # no integer lifts: one affine composition, a single fixed point
        a, b = Fraction(1), Fraction(0)
        for c in itinerary:
            br = system.branches[c]
            a, b = br.slope * a, br.slope * b + br.offset
        candidates.append(b / (1 - a))
    orbits = []
    for x0 in sorted(set(candidates)):
        pts = [x0]
        for c in itinerary:
            b = system.branches[c]
            x = pts[-1]
            if not b.lo <= x <= b.hi or (b.wraps and not (0 <= x < 1)):
                break
            pts.append(b.apply(x))
        else:
            if pts[-1] == x0:
                orbits.append(tuple(pts[:-1]))
    return orbits


def fraction_periodic_orbits(system: PiecewiseAffineMVSystem, max_period: int, consume) -> None:
    """Reference for ``circle.visit_periodic_orbits``: the same calls of
    ``consume(word, numerators, denominator)`` in the same order, computed
    with ``Fraction`` points.

    Per period, per necklace word in lexicographic order (every word that
    is its own least rotation), per fixed point of the word in ascending
    order: drop non-primitive point sequences, rotate to the least
    (points, word) and skip point sequences already seen.
    """
    for k in range(1, max_period + 1):
        seen: set = set()
        for word in product(range(len(system.branches)), repeat=k):
            if any(word[r:] + word[:r] < word for r in range(1, k)):
                continue
            for pts in _solve_itinerary(system, word):
                if any(pts[d:] + pts[:d] == pts for d in range(1, k) if k % d == 0):
                    continue
                canon_pts, canon_word = min(
                    (pts[r:] + pts[:r], word[r:] + word[:r]) for r in range(k)
                )
                if canon_pts in seen:
                    continue
                seen.add(canon_pts)
                denom = math.lcm(*(p.denominator for p in canon_pts))
                consume(canon_word, tuple(int(p * denom) for p in canon_pts), denom)


def fraction_orientation(o, a, b) -> int:
    """Sign of the cross product (a - o) x (b - o) of Fraction points."""
    cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    return (cross > 0) - (cross < 0)


def is_convex_polygon(vertices) -> bool:
    """True iff the vertex sequence is a strictly convex ccw polygon, by
    ``fraction_orientation`` of every three consecutive vertices."""
    pts = [(Fraction(v[0]), Fraction(v[1])) for v in vertices]
    k = len(pts)
    return k < 3 or all(fraction_orientation(pts[i], pts[(i + 1) % k], pts[(i + 2) % k]) > 0
                        for i in range(k))


def fraction_convex_hull(points) -> list[tuple[Fraction, Fraction]]:
    """Reference for ``geometry.convex_hull``: every point converted to a
    Fraction pair, then the monotone chain with Fraction orientation."""
    pts = sorted(set((Fraction(p[0]), Fraction(p[1])) for p in points))
    if len(pts) <= 2:
        return pts
    lower: list[tuple[Fraction, Fraction]] = []
    for p in pts:
        while len(lower) >= 2 and fraction_orientation(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[Fraction, Fraction]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and fraction_orientation(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all points collinear
        return [pts[0], pts[-1]]
    return hull


def orbit_over_lcm(points, itinerary=None) -> PeriodicOrbit:
    """The integer-form orbit of exact points (Fractions, ints or floats,
    each read as its exact rational): the numerators over the lcm of the
    points' reduced denominators, which is lowest terms.  The itinerary
    defaults to all zeros, for checks that read only the points."""
    ratios = [Fraction(p) for p in points]
    den = math.lcm(*(r.denominator for r in ratios))
    numerators = tuple(r.numerator * (den // r.denominator) for r in ratios)
    if itinerary is None:
        itinerary = (0,) * len(ratios)
    return PeriodicOrbit(tuple(itinerary), numerators, den)


def fraction_points(orbit: PeriodicOrbit) -> tuple[Fraction, ...]:
    """The orbit's points as ``Fraction``s: each numerator over the one
    denominator."""
    return tuple(Fraction(x, orbit.denominator) for x in orbit.numerators)


def orbit_is_valid(system: PiecewiseAffineMVSystem, orbit: PeriodicOrbit) -> bool:
    """Re-validate an orbit by exact forward iteration of its ``Fraction``
    points through its itinerary."""
    k = orbit.period
    points = fraction_points(orbit)
    if len(orbit.itinerary) != k or k == 0:
        return False
    for idx in range(k):
        b = system.branches[orbit.itinerary[idx]]
        x = points[idx]
        if not b.lo <= x <= b.hi:
            return False
        if b.apply(x) != points[(idx + 1) % k]:
            return False
    return True


def fraction_barycentre(orbit: PeriodicOrbit) -> complex:
    """Reference for ``circle.barycentre``: the same sum over the float
    values of the orbit's ``Fraction`` points."""
    return sum(cmath.exp(2j * cmath.pi * float(x)) for x in fraction_points(orbit)) / orbit.period


def fraction_is_sturmian(orbit_or_points, arc_length) -> bool:
    """Reference for ``circle.is_sturmian``: the points sorted on the circle
    as Fractions, the largest gap compared with 1 - arc_length."""
    arc = Fraction(arc_length)
    if not (0 < arc <= 1):
        raise ValueError("arc length must be in (0, 1]")
    points = (fraction_points(orbit_or_points) if isinstance(orbit_or_points, PeriodicOrbit)
              else orbit_or_points)
    circle_points = sorted({Fraction(p) - math.floor(Fraction(p)) for p in points})
    m = len(circle_points)
    if m <= 1:
        return True
    largest_gap = max(
        (circle_points[(i + 1) % m] - circle_points[i]) % 1 if i + 1 < m
        else circle_points[0] + 1 - circle_points[-1]
        for i in range(m)
    )
    return largest_gap >= 1 - arc


def sturmian_orbits(system: PiecewiseAffineMVSystem, max_period: int) -> list[PeriodicOrbit]:
    """The Sturmian orbits up to max_period, by construction: the orbits of
    the constant words and of the two-letter Christoffel words of every
    length up to max_period, each solved by ``circle._word_orbits``, that
    pass ``fraction_is_sturmian`` over the system's ``sturmian_arc`` (1/2
    when it has none).  A constant word of a wrapping branch has an orbit
    per integer lift, so for a one-branch system (pq:1,q) the arc test does
    all the selecting.

    The Christoffel word of slope p/k, gcd(p, k) = 1, 0 < p < k, has the
    letter w_i = floor((i + 1) p / k) - floor(i p / k) at i < k; it is
    written with every ordered pair of distinct branches for the letters 0
    and 1.  Each orbit is put in lowest terms and in the rotation of its
    least point sequence; point sequences that repeat within their word are
    left out, and one orbit is kept per point sequence, sorted by (period,
    points)."""
    unit, rows = _integer_branches(system)
    arc = system.sturmian_arc if system.sturmian_arc is not None else Fraction(1, 2)
    letters = range(len(rows))
    words = set()
    for k in range(1, max_period + 1):
        words.update((c,) * k for c in letters)
        for p in range(1, k):
            if math.gcd(p, k) == 1:
                pattern = [(i + 1) * p // k - i * p // k for i in range(k)]
                words.update(tuple(b if w else a for w in pattern)
                             for a in letters for b in letters if a != b)
    seen, found = set(), []
    for word in words:
        den, orbits = _word_orbits(word, rows, unit)
        for xs in orbits:
            k = len(xs)
            if any(xs[d:] + xs[:d] == xs for d in range(1, k)):
                continue
            g = math.gcd(den, *xs)
            start = min(range(k), key=lambda i: xs[i:] + xs[:i])
            key = (den // g, tuple(x // g for x in xs[start:] + xs[:start]))
            if key in seen:
                continue
            seen.add(key)
            orbit = PeriodicOrbit(word[start:] + word[:start], key[1], key[0])
            if fraction_is_sturmian(orbit, arc):
                found.append(orbit)
    return sorted(found, key=lambda o: (o.period, fraction_points(o)))


def flatten_blocks(blocks) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The rows of ``visit_periodic_orbits`` blocks, in order, as the calls
    of ``fraction_periodic_orbits``: (word, numerators, denominator) in
    Python ints."""
    return [(tuple(word), tuple(xs), d)
            for words, numerators, dens in blocks
            for word, xs, d in zip(words.tolist(), numerators.tolist(), dens.tolist())]


def visited_orbits(system: PiecewiseAffineMVSystem, max_period: int):
    """Every row ``visit_periodic_orbits`` hands over, flattened."""
    blocks: list = []
    visit_periodic_orbits(system, max_period, lambda *block: blocks.append(block))
    return flatten_blocks(blocks)


def fraction_sorted_orbits(system: PiecewiseAffineMVSystem, max_period: int) -> list[PeriodicOrbit]:
    """Reference for ``circle.enumerate_periodic_orbits``: the visitor's
    orbits, sorted by (period, Fraction points)."""
    rows = sorted(visited_orbits(system, max_period),
                  key=lambda r: (len(r[1]), tuple(Fraction(x, r[2]) for x in r[1])))
    return [PeriodicOrbit(word, numerators, denom) for word, numerators, denom in rows]


def _cells_meeting(lo: Fraction, hi: Fraction, g: int) -> range:
    """Indices a with [a/g, (a+1)/g] meeting the closed interval [lo, hi]."""
    a_min = math.ceil(lo * g) - 1
    a_max = math.floor(hi * g)
    return range(max(a_min, 0), min(a_max, g - 1) + 1)


def fraction_outer_grid_system(system: PiecewiseAffineMVSystem, grid_n: int) -> GridModel:
    """Reference for ``bounds.outer_grid_system``, in ``Fraction`` arithmetic:
    cell a links to cell b iff some branch image of (cell a intersected with
    the branch domain) meets cell b; wrapping images are split mod 1."""
    g = int(grid_n)
    edges: set[tuple[int, int]] = set()
    for br in system.branches:
        for a in _cells_meeting(br.lo, br.hi, g):
            lo = max(Fraction(a, g), br.lo)
            hi = min(Fraction(a + 1, g), br.hi)
            y1, y2 = sorted((br.slope * lo + br.offset, br.slope * hi + br.offset))
            if br.wraps:
                shift = math.floor(y1)
                y1, y2 = y1 - shift, y2 - shift
                spans = []
                while y2 > 1:
                    spans.append((y1, Fraction(1)))
                    y1, y2 = Fraction(0), y2 - 1
                spans.append((y1, y2))
            else:
                spans = [(y1, y2)]
            for s1, s2 in spans:
                for b in _cells_meeting(s1, s2, g):
                    edges.add((a, b))
                # a closed image touching 1 also meets cell 0 on the circle
                if br.wraps and s2 == 1:
                    edges.add((a, 0))
    return GridModel(system, HowardSolver(FiniteMVSystem.make(g, edges)))


# ---------------------------------------------------------------------------
# The subaction certificate and the cycle-mean oracles in ``Fraction`` means:
# the package's code before it worked on ``scaled`` integers


def fraction_compute_v(phi, f, beta) -> tuple:
    """Reference for ``subaction.compute_v``: the bound and the fill in
    ``Fraction`` (or float) arithmetic."""
    finite = [p for p in phi if p is not NEG_INF]
    if any(isinstance(p, float) and p == float("inf") for p in finite):
        raise ValueError("phi must not contain +infinity")
    bound = max((abs(p) for p in finite), default=Fraction(0))
    fill = -bound - max(f) + beta
    return tuple(p if p is not NEG_INF else fill for p in phi)


def fraction_verify_mane(system: FiniteMVSystem, f, v, beta, phi=None) -> SubactionResult:
    """Reference for ``subaction.verify_mane``: three ``Fraction`` (or
    float) operations per edge slack."""
    if len(f) != len(system.edges):
        raise ValueError("edge function length must equal the edge count")
    if len(v) != system.n_states:
        raise ValueError("v length must equal n_states")
    tol = tie_tolerance(f)
    slack = tuple([beta - (f[k] + v[t] - v[h]) for k, (t, h) in enumerate(system.edges)])
    worst = min(range(len(slack)), key=lambda k: slack[k], default=None)
    if worst is not None and slack[worst] < -tol:
        raise ViolatedEdgeError(system.edges[worst], slack[worst])
    tight = tuple([k for k, s in enumerate(slack) if s <= tol])
    tight_sys = FiniteMVSystem(system.n_states, tuple([system.edges[k] for k in tight]))
    if not eventual_domain(tight_sys):
        if not eventual_domain(system):
            raise NoCycleError("the system has no directed cycle")
        raise BetaNotAttainedError(
            "no cycle of tight edges; beta does not match the maximum ergodic average"
        )
    if phi is None:
        phi = tuple(v)
    return SubactionResult(beta, tuple(phi), tuple(v), slack, tight, worst)


def fraction_epsilon_witness(cycle: Cycle, f) -> int:
    """Reference for ``mea.epsilon_witness``: prefix sums less the
    ``Fraction`` (or float) mean."""
    values = [f[x] for x in cycle.states]
    k = len(values)
    total = sum(values)
    mean = divide(total, k)
    prefix = [0 * total]
    for v in values:
        prefix.append(prefix[-1] + v - mean)
    best_i, best_val = 0, prefix[0]
    for i in range(1, k):
        if prefix[i] < best_val:
            best_i, best_val = i, prefix[i]
    return best_i


def fraction_brute_force_alpha(system: FiniteMVSystem, f):
    """Reference for ``mea.brute_force_alpha``: every simple cycle's
    ``Fraction`` (or float) mean."""
    if system.n_states > BRUTE_FORCE_STATE_LIMIT:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_STATE_LIMIT} states")
    best = NEG_INF
    for states in simple_cycles(system):
        mean = divide(sum(f[x] for x in states), len(states))
        if best is NEG_INF or mean > best:
            best = mean
    return best
