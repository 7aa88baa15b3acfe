"""Piecewise-affine expanding multi-valued systems on the interval / circle.

Branches are exact affine maps with rational slope and offset on rational
closed subdomains of [0, 1]; wrapping branches act modulo 1.  Periodic orbits
are enumerated exactly: each necklace branch word is solved for its fixed
points in integer arithmetic, over one denominator per word, branching over
the integer lifts of wrapping branches.  The expansion property is certified
by exact case analysis on branch pairs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

ORBIT_PERIOD_LIMIT = 24


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


def visit_periodic_orbits(system: PiecewiseAffineMVSystem, max_period: int, consume) -> None:
    """Stream every periodic orbit of period <= max_period, exactly.

    ``consume(word, numerators, denominator)`` receives the canonical-rotation
    branch word and the orbit points as integers over a positive common
    denominator.  One call per distinct point sequence (branch relabellings at
    domain boundaries are deduplicated); orbits arrive grouped by period.

    Every system takes the same path: FKM necklace words in order, each
    solved by ``_word_orbits`` in integer arithmetic (wrapping branches and
    rational slopes included), its orbits in ascending order; non-primitive
    point sequences are dropped, the rest reduced to lowest terms, rotated
    to the least (points, word) and deduplicated per period.
    """
    if not (1 <= max_period <= ORBIT_PERIOD_LIMIT):
        raise ValueError(f"max_period must be between 1 and {ORBIT_PERIOD_LIMIT}")
    unit, rows = _integer_branches(system)
    for k in range(1, max_period + 1):
        seen: set = set()
        divisors = [d for d in range(1, k) if k % d == 0]

        def handle(buf, k=k, seen=seen, divisors=divisors):
            word = tuple(buf[1:k + 1])
            den, orbits = _word_orbits(word, rows, unit)
            for xs in orbits:
                if any(xs[d:] + xs[:d] == xs for d in divisors):
                    continue  # not primitive
                g = math.gcd(den, *xs)
                if g > 1:
                    xs = [x // g for x in xs]
                # canonical rotation: least (points, word), led by a least point
                low = min(xs)
                r = xs.index(low)
                if xs.count(low) > 1:
                    r = min((r for r in range(k) if xs[r] == low),
                            key=lambda r: (xs[r:] + xs[:r], word[r:] + word[:r]))
                key = (den // g, tuple(xs[r:] + xs[:r]))
                if key not in seen:
                    seen.add(key)
                    consume(word[r:] + word[:r], key[1], key[0])

        for_each_necklace(k, len(system.branches), handle)


def enumerate_periodic_orbits(system: PiecewiseAffineMVSystem, max_period: int) -> list[PeriodicOrbit]:
    """All periodic orbits of period up to max_period, exactly.

    One representative per distinct point sequence; sorted by (period,
    points).  For large orbit sets prefer the streaming visitor.
    """
    found: list[PeriodicOrbit] = []

    def consume(word, numerators, denom):
        found.append(PeriodicOrbit(word, tuple(Fraction(x, denom) for x in numerators)))

    visit_periodic_orbits(system, max_period, consume)
    return sorted(found, key=lambda o: (o.period, o.points))


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
    sort on the circle and compare the largest gap with 1 - arc_length."""
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
