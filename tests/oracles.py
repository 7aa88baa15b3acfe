"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's algorithmic paths: cycles come from a
plain DFS, invariance from the subset characterization, extreme measures from
active-set vertex enumeration of the inequality polytope and from the
elimination LP over every other candidate, the potential
from explicit backward-walk enumeration, float cycle means from Karp's walk
table, and periodic orbits of circle systems from a rational lift search.
Convex hulls, Sturmian arcs and the orbit order are decided in ``Fraction``
arithmetic, where the package works in integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from mvergo.bounds import GridModel
from mvergo.circle import PeriodicOrbit, PiecewiseAffineMVSystem, visit_periodic_orbits
from mvergo.mea import NoCycleError
from mvergo.measures import Cycle, VertexMeasure, convex_combination, cycle_measure
from mvergo.system import FiniteMVSystem, simple_cycles


def z4_system() -> FiniteMVSystem:
    edges = [(x, (x + 1) % 4) for x in range(4)] + [(x, (x - 1) % 4) for x in range(4)]
    return FiniteMVSystem.make(4, edges)


def identity_system(n: int) -> FiniteMVSystem:
    return FiniteMVSystem.make(n, [(x, x) for x in range(n)])


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
        if convex_combination(weights, others) is None:
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
            if not b.contains(x) or (b.wraps and not (0 <= x < 1)):
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


def fraction_is_sturmian(orbit_or_points, arc_length) -> bool:
    """Reference for ``circle.is_sturmian``: the points sorted on the circle
    as Fractions, the largest gap compared with 1 - arc_length."""
    arc = Fraction(arc_length)
    if not (0 < arc <= 1):
        raise ValueError("arc length must be in (0, 1]")
    points = getattr(orbit_or_points, "points", orbit_or_points)
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


def fraction_sorted_orbits(system: PiecewiseAffineMVSystem, max_period: int) -> list[PeriodicOrbit]:
    """Reference for ``circle.enumerate_periodic_orbits``: the visitor's
    orbits as Fraction points, sorted by (period, points)."""
    found: list[PeriodicOrbit] = []

    def consume(word, numerators, denom):
        found.append(PeriodicOrbit(word, tuple(Fraction(x, denom) for x in numerators)))

    visit_periodic_orbits(system, max_period, consume)
    return sorted(found, key=lambda o: (o.period, o.points))


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
    fs = FiniteMVSystem.make(g, edges)
    centers = (np.arange(g) + 0.5) / g
    return GridModel(fs, g, centers, fs.edge_array[:, 0])
