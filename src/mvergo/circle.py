"""Piecewise-affine expanding multi-valued systems on the interval / circle.

Branches are exact affine maps with rational slope and offset on rational
closed subdomains of [0, 1]; wrapping branches act modulo 1.  Periodic orbits
are enumerated exactly: each necklace branch word is solved for its fixed
points in integer arithmetic, over one denominator per word, branching over
the integer lifts of wrapping branches.  Systems whose branches share one
integer slope s >= 2, none wrapping, where no two branches of equal offset
have domains that meet, take a batched numpy int64 path instead: there the
points of an orbit determine its word, so every primitive necklace carries
at most one orbit and no two coincide.  Both paths give the same orbits in
the same order.  The expansion property is certified by exact case
analysis on branch pairs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

ORBIT_PERIOD_LIMIT = 24
# word codes per numpy block of the batched orbit path: blocks of 2^16 codes
# raised the benchmark sweep's peak RSS by 1.5 MB, 2^13 does not
_BATCH_CODES = 1 << 13
_INT64_SAFE = 1 << 62


class NotExpandingError(Exception):
    """The branch family fails the uniform expansion case analysis."""

    def __init__(self, pair: tuple[int, int], reason: str):
        super().__init__(f"branches {pair} are not uniformly separated: {reason}")
        self.pair = pair


@dataclass(frozen=True)
class Branch:
    """One affine branch x -> slope*x + offset on [lo, hi] (mod 1 if wraps)."""

    slope: Fraction
    offset: Fraction
    lo: Fraction
    hi: Fraction
    wraps: bool = False

    def __post_init__(self):
        if abs(self.slope) <= 1:
            raise ValueError("branch slope must exceed 1 in absolute value")
        if not (0 <= self.lo <= self.hi <= 1):
            raise ValueError("branch domain must be a subinterval of [0, 1]")
        if not self.wraps:
            for x in (self.lo, self.hi):
                y = self.slope * x + self.offset
                if not (0 <= y <= 1):
                    raise ValueError("non-wrapping branch must map its domain into [0, 1]")

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def apply(self, x: Fraction) -> Fraction:
        """Exact image of a domain point; canonical representative in [0, 1)
        for wrapping branches."""
        y = self.slope * x + self.offset
        if self.wraps:
            y -= math.floor(y)
        return y


def _make_branch(slope, offset, lo, hi, wraps=False) -> Branch:
    return Branch(Fraction(slope), Fraction(offset), Fraction(lo), Fraction(hi), wraps)


@dataclass(frozen=True)
class PiecewiseAffineMVSystem:
    """A finite family of expanding affine branches with a metric flag.

    metric "interval" is the Euclidean distance on [0, 1]; "circle" the
    intrinsic distance on R/Z.  ``sturmian_arc`` is the arc length used when
    classifying orbits for this family (1/q for the q-fold correspondences,
    1/4 for the three-branch doubling family).
    """

    branches: tuple[Branch, ...]
    metric: str = "interval"
    name: str = "custom"
    sturmian_arc: Fraction | None = None

    def __post_init__(self):
        if not self.branches:
            raise ValueError("a system needs at least one branch")
        if self.metric not in ("interval", "circle"):
            raise ValueError("metric must be 'interval' or 'circle'")

    def min_expansion(self) -> Fraction:
        return min(abs(b.slope) for b in self.branches)


def three_branch_doubling() -> PiecewiseAffineMVSystem:
    """Doubling on [0, 1] with the extra middle branch 2x - 1/2 on [1/4, 3/4]."""
    return PiecewiseAffineMVSystem(
        branches=(
            _make_branch(2, 0, 0, Fraction(1, 2)),
            _make_branch(2, Fraction(-1, 2), Fraction(1, 4), Fraction(3, 4)),
            _make_branch(2, -1, Fraction(1, 2), 1),
        ),
        metric="interval",
        name="threebranch",
        sturmian_arc=Fraction(1, 4),
    )


def doubling_map() -> PiecewiseAffineMVSystem:
    """The doubling map on [0, 1] as two non-wrapping branches."""
    return PiecewiseAffineMVSystem(
        branches=(
            _make_branch(2, 0, 0, Fraction(1, 2)),
            _make_branch(2, -1, Fraction(1, 2), 1),
        ),
        metric="interval",
        name="doubling",
        sturmian_arc=Fraction(1, 2),
    )


def pq_correspondence(p: int, q: int) -> PiecewiseAffineMVSystem:
    """The circle correspondence x -> {(qx + j)/p : 0 <= j < p} for p < q."""
    if not (1 <= p < q):
        raise ValueError("need 1 <= p < q")
    branches = tuple(
        _make_branch(Fraction(q, p), Fraction(j, p), 0, 1, wraps=True) for j in range(p)
    )
    return PiecewiseAffineMVSystem(
        branches=branches,
        metric="circle",
        name=f"pq:{p},{q}",
        sturmian_arc=Fraction(1, q),
    )


# ---------------------------------------------------------------------------
# Expansion certificate


def circle_norm(x: Fraction) -> Fraction:
    """Intrinsic distance from x to the nearest integer."""
    frac = x - math.floor(x)
    return min(frac, 1 - frac)


def _range_norm_min(u: Fraction, v: Fraction, metric: str) -> Fraction:
    """Minimum metric norm of an affine value sweeping the interval [u, v]."""
    if u > v:
        u, v = v, u
    if metric == "interval":
        if u <= 0 <= v:
            return Fraction(0)
        return min(abs(u), abs(v))
    if math.floor(v) >= math.ceil(u):  # an integer lies in [u, v]
        return Fraction(0)
    return min(circle_norm(u), circle_norm(v))


def expansion_certificate(system: PiecewiseAffineMVSystem) -> tuple[Fraction, Fraction]:
    """Exact (lambda, eta) so that points within eta have all image pairs
    separated by at least lambda times their distance.

    Same-branch pairs expand by the slope; cross pairs are separated by
    sep - (|s_i| + |s_j|) * eta where sep is the minimal image separation on
    the interaction window, giving the linear constraint
    eta <= sep / (lambda + |s_i| + |s_j|).  On the circle, windows are also
    examined across the seam (domains shifted by one turn), where branch
    pairs that continue each other modulo 1 are glued rather than rejected.
    """
    lam = system.min_expansion()
    circle = system.metric == "circle"
    branches = system.branches
    constraints: list[Fraction] = [Fraction(1)]

    for i, b in enumerate(branches):
        s = abs(b.slope)
        if circle:
            constraints.append(Fraction(1, 2) / s)  # image distance stays un-wrapped
        elif b.wraps:
            constraints.append(Fraction(1) / (lam + s))  # images split at the seam

    shifts = (0, 1) if circle else (0,)
    for shift in shifts:
        for i, bi in enumerate(branches):
            for j, bj in enumerate(branches):
                if shift == 0 and j <= i:
                    continue  # unordered pairs once; (i, i, 0) is the slope case
                lo = max(bi.lo, bj.lo + shift)
                hi = min(bi.hi, bj.hi + shift)
                si, sj = abs(bi.slope), abs(bj.slope)
                if lo > hi:
                    # disjoint on this side: pairs closer than the gap are
                    # impossible, otherwise bound via the facing endpoints
                    gap = lo - hi
                    wi = bi.hi if bi.hi < lo else bi.lo
                    wj = bj.hi if bj.hi + shift < lo else bj.lo
                    val = bi.apply(wi) - bj.apply(wj)
                    sep0 = circle_norm(val) if circle else abs(val)
                    smax = max(si, sj)
                    constraints.append(max(gap, (sep0 + smax * gap) / (lam + smax)))
                    continue
                # common-parameter window: compare T_i(w) with T_j(w - shift)
                ds = bi.slope - bj.slope
                doff = bi.offset - bj.offset + bj.slope * shift
                u = ds * lo + doff
                v = ds * hi + doff
                sep = _range_norm_min(u, v, system.metric)
                if sep == 0:
                    identical = ds == 0 and (
                        doff == 0 if not circle else doff == math.floor(doff)
                    )
                    if identical and (lo < hi) and shift == 0:
                        raise NotExpandingError((i, j), "duplicated branch on an interval")
                    if identical:
                        continue  # the branches glue into one map across this window
                    raise NotExpandingError((i, j), "branch images collide on the overlap")
                constraints.append(sep / (lam + si + sj))

    return lam, min(constraints)


# ---------------------------------------------------------------------------
# Periodic orbits


@dataclass(frozen=True)
class PeriodicOrbit:
    """A periodic orbit with its branch itinerary and exact points, stored in
    the lexicographically least rotation of (points, itinerary)."""

    itinerary: tuple[int, ...]
    points: tuple[Fraction, ...]

    @property
    def period(self) -> int:
        return len(self.points)

    def itinerary_string(self) -> str:
        return "".join(str(i) for i in self.itinerary)


def orbit_is_valid(system: PiecewiseAffineMVSystem, orbit: PeriodicOrbit) -> bool:
    """Re-validate an orbit by exact forward iteration through its itinerary."""
    k = orbit.period
    if len(orbit.itinerary) != k or k == 0:
        return False
    for idx in range(k):
        b = system.branches[orbit.itinerary[idx]]
        x = orbit.points[idx]
        if not b.contains(x):
            return False
        if b.apply(x) != orbit.points[(idx + 1) % k]:
            return False
    return True


def for_each_necklace(length: int, alphabet: int, fn) -> None:
    """Visit every necklace (lexicographically least rotation, periodic words
    included) of the given length: FKM generation, lexicographic order.  The
    callback receives a reusable list holding the word in entries
    1..length; copy it if kept.

    Iterative, so no recursive closure outlives the call in a reference
    cycle (holding ``fn`` and whatever it references until the cycle
    collector runs)."""
    a = [0] * (length + 1)
    fn(a)  # the constant word 0...0
    while True:
        i = length  # the last letter that can still grow
        while i and a[i] == alphabet - 1:
            i -= 1
        if not i:
            return
        a[i] += 1
        for j in range(i + 1, length + 1):
            a[j] = a[j - i]
        if length % i == 0:
            fn(a)


def necklaces(length: int, alphabet: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for_each_necklace(length, alphabet, lambda a: out.append(tuple(a[1:length + 1])))
    return out


def _integer_branches(system: PiecewiseAffineMVSystem):
    """(unit, rows): the lcm ``unit`` of the offset denominators, and per
    branch (a, b, e, lo_n, lo_d, hi_n, hi_d, wraps) with slope a/b (b > 0),
    offset e/unit and domain [lo_n/lo_d, hi_n/hi_d]."""
    unit = math.lcm(*(br.offset.denominator for br in system.branches))
    rows = [
        (br.slope.numerator, br.slope.denominator, int(br.offset * unit),
         br.lo.numerator, br.lo.denominator, br.hi.numerator, br.hi.denominator, br.wraps)
        for br in system.branches
    ]
    return unit, rows


def _ceil_div(x: int, y: int) -> int:
    return -(-x // y)


def _clip(p: int, low: int, high: int, n_lo: int, n_hi: int) -> tuple[int, int]:
    """Integers N in [n_lo, n_hi] with low <= p*N <= high (p != 0)."""
    if p > 0:
        return max(n_lo, _ceil_div(low, p)), min(n_hi, high // p)
    return max(n_lo, _ceil_div(high, p)), min(n_hi, low // p)


def _word_orbits(word, rows, unit: int) -> tuple[int, list[list[int]]]:
    """Every periodic point sequence that follows one branch word, exactly.

    Returns (den, orbits): each orbit lists the numerators over ``den`` of its
    points in word order, orbits ascending by first point.  With slopes a/b
    over the word, A = prod a and B = prod b, every point is N/den with
    den = unit*|B - A|, the same for every rotation of the word.  The walk
    carries x_i = (P N + C d)/(den B_i), d = |B - A|, in integers; a wrapping
    letter clips N to its domain and branches over the integer lift m of its
    image, other letters have the single child m = 0.  At the end
    (B - A) N = C d gives N, and each candidate is confirmed by exact integer
    forward iteration.
    """
    k = len(word)
    a_all = math.prod([rows[c][0] for c in word])
    b_all = math.prod([rows[c][1] for c in word])
    d = abs(b_all - a_all)  # nonzero: every slope exceeds 1 in absolute value
    sign = 1 if b_all > a_all else -1
    den = unit * d
    found = []
    stack = [(0, 1, 1, 0, 0, den)]  # position, P, B_i, C, feasible N range
    while stack:
        i, p, bi, acc, n_lo, n_hi = stack.pop()
        for i in range(i, k):
            a, b, e, ln, ld, hn, hd, wraps = rows[word[i]]
            if wraps:
                break
            bi *= b
            acc = a * acc + e * bi
            p *= a
        else:
            n = sign * acc
            if n_lo <= n <= n_hi:
                found.append(n)
            continue
        # wrapping letter: x_i * scale = p N + q must lie in the domain and below 1
        scale, q = den * bi, acc * d
        n_lo, n_hi = _clip(p, _ceil_div(ln * scale - ld * q, ld),
                           min((hn * scale - hd * q) // hd, scale - q - 1), n_lo, n_hi)
        if n_lo > n_hi:
            continue
        bi *= b
        p *= a
        scale = den * bi
        base = a * acc + e * bi  # C before the lift: x_{i+1} * scale = p N + base d - m scale
        ends = ((p * n_lo + base * d) // scale, (p * n_hi + base * d) // scale)
        for m in range(min(ends), max(ends) + 1):
            low = m * scale - base * d
            m_lo, m_hi = _clip(p, low, low + scale - 1, n_lo, n_hi)
            if m_lo <= m_hi:
                stack.append((i + 1, p, bi, base - m * unit * bi, m_lo, m_hi))

    orbits = []
    for n in sorted(found):
        xs = []
        x = n
        for c in word:
            a, b, e, ln, ld, hn, hd, wraps = rows[c]
            if x * ld < ln * den or x * hd > hn * den or (wraps and x == den):
                break
            xs.append(x)
            x *= a
            if b != 1:
                x, r = divmod(x, b)
                if r:
                    break
            x += e * d
            if wraps:
                x %= den
        else:
            if x == n:
                orbits.append(xs)
    return den, orbits


def _batch_slope(system: PiecewiseAffineMVSystem) -> int | None:
    """The common slope s when ``system`` can take the batched orbit path,
    else None.

    Eligible: every branch has the same integer slope s >= 2, none wraps,
    and no two branches with equal offsets have domains that meet, not even
    at one point.  Then the offset x_{j+1} - s x_j of each step of a point
    sequence is known, and at most one branch with that offset contains x_j:
    the points determine the word.  So a primitive word gives a primitive
    point sequence, words that are not rotations of each other give point
    sequences that are not rotations of each other, and each word, a single
    affine composition of slope s^k != 1, has at most one fixed point."""
    branches = system.branches
    s = branches[0].slope
    if s.denominator != 1 or s < 2 or any(br.slope != s or br.wraps for br in branches):
        return None
    for i, bi in enumerate(branches):
        for bj in branches[i + 1:]:
            if bi.offset == bj.offset and max(bi.lo, bj.lo) <= min(bi.hi, bj.hi):
                return None
    return int(s)


def _visit_words(k: int, rows, unit: int, consume) -> None:
    """Period k of ``visit_periodic_orbits`` on the per-word integer path."""
    seen: set = set()
    divisors = [d for d in range(1, k) if k % d == 0]

    def handle(buf):
        word = tuple(buf[1:k + 1])
        den, orbits = _word_orbits(word, rows, unit)
        for xs in orbits:
            if any(xs[d:] + xs[:d] == xs for d in divisors):
                continue  # not primitive
            g = math.gcd(den, *xs)
            if g > 1:
                xs = [x // g for x in xs]
            xs, w = _least_rotation(xs, word)
            key = (den // g, tuple(xs))
            if key not in seen:
                seen.add(key)
                consume(w, key[1], key[0])

    for_each_necklace(k, len(rows), handle)


def _least_rotation(xs: list[int], word) -> tuple[list[int], tuple[int, ...]]:
    """The rotation of (xs, word) with the least (points, word), which is
    led by a least point."""
    k = len(xs)
    low = min(xs)
    r = xs.index(low)
    if xs.count(low) > 1:
        r = min((r for r in range(k) if xs[r] == low),
                key=lambda r: (xs[r:] + xs[:r], word[r:] + word[:r]))
    return xs[r:] + xs[:r], tuple(word[r:]) + tuple(word[:r])


def _visit_batched(k: int, s: int, rows, unit: int, consume) -> bool:
    """Period k of ``visit_periodic_orbits`` for an eligible system (see
    ``_batch_slope``) in numpy int64 blocks; False, having visited nothing,
    when a bound of that period does not fit in int64.

    Base-r word codes ascend through each block; a code is kept when it is
    less than each of its proper rotations (a primitive necklace).  With
    M = s^k - 1 and offsets e/unit, the word's fixed point is N_0/(unit M)
    with N_0 = -sum_j s^(k-1-j) e_{w_j} (Horner's rule), and
    N_{j+1} = s N_j + e_{w_j} M; every N_j is a fixed point of a rotated
    composition, so |N_j| <= max|e| M/(s - 1)."""
    r = len(rows)
    m = s ** k - 1
    den = unit * m
    emax = max(abs(row[2]) for row in rows)
    nmax = emax * (m // (s - 1))
    dmax = max(max(row[4], row[6]) for row in rows)
    if max(r ** k, s * nmax + emax * m, nmax * dmax, dmax * den) >= _INT64_SAFE:
        return False
    top = r ** (k - 1)
    powers = np.array([r ** (k - 1 - j) for j in range(k)], dtype=np.int64)
    offsets = np.array([row[2] for row in rows], dtype=np.int64)
    steps = offsets * m
    lo_d = np.array([row[4] for row in rows], dtype=np.int64)
    hi_d = np.array([row[6] for row in rows], dtype=np.int64)
    lo_n = np.array([row[3] for row in rows], dtype=np.int64) * den
    hi_n = np.array([row[5] for row in rows], dtype=np.int64) * den
    positions = np.arange(k)
    for start in range(0, r ** k, _BATCH_CODES):
        codes = np.arange(start, min(start + _BATCH_CODES, r ** k), dtype=np.int64)
        rot = codes
        for _ in range(k - 1):
            rot = rot % top * r + rot // top
            keep = codes < rot
            codes, rot = codes[keep], rot[keep]
        letters = codes[:, None] // powers % r
        acc = np.zeros(len(codes), dtype=np.int64)
        for j in range(k):
            acc = s * acc + offsets[letters[:, j]]
        pts = np.empty(letters.shape, dtype=np.int64)
        pts[:, 0] = -acc
        for j in range(k - 1):
            pts[:, j + 1] = s * pts[:, j] + steps[letters[:, j]]
        inside = ((pts * lo_d[letters] >= lo_n[letters])
                  & (pts * hi_d[letters] <= hi_n[letters])).all(axis=1)
        letters, pts = letters[inside], pts[inside]
        g = np.gcd(np.gcd.reduce(pts, axis=1), den)
        pts //= g[:, None]
        first = pts.argmin(axis=1)
        ties = (pts == pts[np.arange(len(pts)), first][:, None]).sum(axis=1) > 1
        order = (first[:, None] + positions) % k
        pts = np.take_along_axis(pts, order, axis=1)
        letters = np.take_along_axis(letters, order, axis=1)
        for word, xs, d, tie in zip(letters.tolist(), pts.tolist(), (den // g).tolist(),
                                    ties.tolist()):
            if tie:
                xs, word = _least_rotation(xs, word)
            consume(tuple(word), tuple(xs), d)
    return True


def visit_periodic_orbits(system: PiecewiseAffineMVSystem, max_period: int, consume) -> None:
    """Stream every periodic orbit of period <= max_period, exactly.

    ``consume(word, numerators, denominator)`` receives the canonical-rotation
    branch word and the orbit points as integers over a positive common
    denominator.  One call per distinct point sequence (branch relabellings at
    domain boundaries are deduplicated); orbits arrive grouped by period,
    and within a period by word in lexicographic order.

    Two paths give the same calls in the same order.  The per-word path
    takes FKM necklace words in order, each solved by ``_word_orbits`` in
    integer arithmetic (wrapping branches and rational slopes included), its
    orbits in ascending order; non-primitive point sequences are dropped,
    the rest reduced to lowest terms, rotated to the least (points, word)
    and deduplicated per period.  Systems of one integer slope s >= 2 with
    no wrapping branch, where no two branches of equal offset have domains
    that meet, take the batched path (``_visit_batched``) at every period
    whose bounds fit in int64: there the points determine the word (see
    ``_batch_slope``), so only primitive necklaces carry primitive orbits,
    each at most one, and no two orbits coincide; the primitivity test
    and the per-period dedup have nothing to drop and are skipped.
    """
    if not (1 <= max_period <= ORBIT_PERIOD_LIMIT):
        raise ValueError(f"max_period must be between 1 and {ORBIT_PERIOD_LIMIT}")
    unit, rows = _integer_branches(system)
    slope = _batch_slope(system)
    for k in range(1, max_period + 1):
        if slope is None or not _visit_batched(k, slope, rows, unit, consume):
            _visit_words(k, rows, unit, consume)


def enumerate_periodic_orbits(system: PiecewiseAffineMVSystem, max_period: int) -> list[PeriodicOrbit]:
    """All periodic orbits of period up to max_period, exactly.

    One representative per distinct point sequence; sorted by (period,
    points).  For large orbit sets prefer the streaming visitor.

    The sort runs on integers: within one period every orbit's numerators
    are scaled to the lcm of that period's denominators, which orders them
    exactly as their points.  The Fraction points are built after the sort.
    """
    found: list[PeriodicOrbit] = []
    group: list = []  # (word, numerators, denominator) of the current period

    def place_group():
        unit = math.lcm(*{t[2] for t in group})

        def scaled(t):
            s = unit // t[2]
            return tuple([x * s for x in t[1]])

        group.sort(key=scaled)
        # tuple([...]) allocates the final size, so the points reuse the key
        # tuples that the sort freed to CPython's tuple free list
        found.extend(PeriodicOrbit(word, tuple([Fraction(x, denom) for x in numerators]))
                     for word, numerators, denom in group)
        group.clear()

    def consume(word, numerators, denom):
        if group and len(group[0][0]) != len(word):
            place_group()
        group.append((word, numerators, denom))

    visit_periodic_orbits(system, max_period, consume)
    if group:
        place_group()
    return found


# ---------------------------------------------------------------------------
# Averages, barycentres, arcs


def orbit_average(orbit: PeriodicOrbit, f: Callable[[float], float]) -> float:
    """Mean of f over the orbit points (double precision)."""
    return sum(f(float(x)) for x in orbit.points) / orbit.period


def barycentre(orbit: PeriodicOrbit) -> complex:
    """Average of exp(2 pi i x) over the orbit points."""
    return sum(cmath.exp(2j * cmath.pi * float(x)) for x in orbit.points) / orbit.period


def is_sturmian(orbit_or_points, arc_length) -> bool:
    """True iff all points fit in a closed circular arc of the given length:
    the largest gap between consecutive points on the circle, the wrap-around
    gap included, is at least 1 - arc_length.

    Decided in integers: the points are put over the lcm D of their
    denominators and their numerators reduced mod D, so a point at 1 counts
    as 0; with arc = a/b the test is gap * b >= (b - a) * D."""
    arc = Fraction(arc_length)
    if not (0 < arc <= 1):
        raise ValueError("arc length must be in (0, 1]")
    points = getattr(orbit_or_points, "points", orbit_or_points)
    ratios = [(p if isinstance(p, (int, float, Fraction)) else Fraction(p)).as_integer_ratio()
              for p in points]
    den = math.lcm(*(d for _, d in ratios))
    residues = sorted({n * (den // d) % den for n, d in ratios})
    if len(residues) <= 1:
        return True
    largest_gap = max(residues[0] + den - residues[-1],
                      max(b - a for a, b in zip(residues, residues[1:])))
    return largest_gap * arc.denominator >= (arc.denominator - arc.numerator) * den
