"""Certified bounds on maximum ergodic averages of circle systems.

Lower bounds come from exact periodic orbits; upper bounds from an outer
grid approximation: cells are linked whenever a branch image of one closed
cell meets another, so every true orbit is shadowed by a grid path and the
grid's maximum cycle mean (plus a Lipschitz margin) dominates the true
average.  That cycle mean comes from Howard's policy iteration, checked by
a potential that bounds every grid cycle mean.  The sweep reuses one orbit
table and one grid per system across parameter values; the grid keeps its
prepared Howard solver, and each solve starts from the previous one's final
policy.  Each function that builds or reads an array imports numpy when it
runs, not this module, so importing the command line does not load numpy.

For f = cos 2 pi (x - theta) an orbit's average is Re(e^(-2 pi i theta) z),
z its barycentre, so the lower bound is the support function of the
barycentre set in the direction theta.  The orbit table keeps each orbit's
barycentre, and ``beta_lower`` scores every orbit by it in O(orbits) per
theta.  A score is within eps/8 of the orbit's mean as the full scan
computes it (eps = ``COS_SCORE_ERROR`` = 2^-40; each float step is off by
at most a few ulps, and a mean of k <= 24 terms of size at most 1 by k ulps
of 1), so the orbits scoring within 2 eps of the best include every orbit
of the largest mean.  Only those candidates are evaluated at their points,
as the full scan evaluates every orbit, which gives the same bound and
witness bit for bit.  Other function families evaluate every orbit.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .circle import (
    PeriodicOrbit,
    PiecewiseAffineMVSystem,
    _integer_branches,
    _word_orbits,
    barycentre,
    enumerate_periodic_orbits,
    is_sturmian,
    visit_periodic_orbits,
)
from .geometry import convex_hull, hull_candidates
from .mea import HowardSolver, max_mean_cycle_value_float
from .system import FiniteMVSystem

if TYPE_CHECKING:
    import numpy as np

GRID_MIN = 8
_FLOAT_EXACT = 1 << 53  # every integer below it is a float


# ---------------------------------------------------------------------------
# Function families


class CosWave:
    """f_theta(x) = cos(2 pi (x - theta)); Lipschitz constant 2 pi; theta
    is reduced mod 1 exactly before it becomes a float."""

    def __init__(self, theta):
        self.theta = Fraction(theta) % 1
        self.lipschitz = 2 * math.pi

    def values(self, xs: np.ndarray) -> np.ndarray:
        import numpy as np

        # in place: one temporary the size of xs, not three
        out = xs - float(self.theta)
        out *= 2 * np.pi
        return np.cos(out, out=out)


class NegDistance:
    """g_theta(x) = -d(x, theta); Euclidean on [0, 1] or intrinsic circle,
    where theta is reduced mod 1 exactly, as in ``CosWave``."""

    def __init__(self, theta, metric: str = "interval"):
        self.theta = Fraction(theta) % 1 if metric == "circle" else Fraction(theta)
        self.metric = metric
        self.lipschitz = 1.0

    def values(self, xs: np.ndarray) -> np.ndarray:
        import numpy as np

        d = xs - float(self.theta)
        np.abs(d, out=d)
        if self.metric == "circle":
            d %= 1.0
            np.minimum(d, 1.0 - d, out=d)
        return np.negative(d, out=d)


class ConstFunction:
    """Constant function; Lipschitz constant 0."""

    def __init__(self, c):
        self.c = c
        self.lipschitz = 0.0

    def values(self, xs: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.full(len(xs), float(self.c))


# ---------------------------------------------------------------------------
# Orbit tables (vectorized lower bounds)


@dataclass(frozen=True)
class OrbitTable:
    """Flattened orbit data for vectorized averaging over one system.

    Points are stored as floats (rounded from the exact rationals); the
    canonical branch words share one letter array, in the narrowest unsigned
    dtype that holds every branch index, sliced like the points by
    ``starts`` and ``periods``, so the exact witness orbit can be rebuilt on
    demand without holding every orbit's integer points in memory.  Each
    row also keeps its barycentre, the mean of exp(2 pi i x) over its float
    points, as a row of ``centres``: the real part, then the imaginary.
    """

    system: PiecewiseAffineMVSystem
    letters: np.ndarray      # all canonical branch words, concatenated
    points: np.ndarray       # all orbit points, concatenated
    starts: np.ndarray       # reduceat offsets, one per orbit
    periods: np.ndarray
    centres: np.ndarray      # (orbits, 2): re and im of each barycentre

    def rows(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The float points, reduceat offsets and periods of the rows
        ``index``, gathered into one contiguous array in the order given."""
        import numpy as np

        periods = self.periods[index]
        starts = np.cumsum(periods) - periods
        take = np.repeat(self.starts[index] - starts, periods) + np.arange(periods.sum())
        return self.points[take], starts, periods

    def orbit(self, index: int) -> PeriodicOrbit:
        """Rebuild the exact orbit behind one table row: solve its stored
        word and keep the candidate whose points round to the row's, put in
        lowest terms."""
        start = int(self.starts[index])
        end = start + int(self.periods[index])
        word = tuple(self.letters[start:end].tolist())
        stored = self.points[start:end]
        unit, rows = _integer_branches(self.system)
        den, orbits = _word_orbits(word, rows, unit)
        for xs in orbits:
            if all(x / den == q for x, q in zip(xs, stored)):
                g = math.gcd(den, *xs)
                return PeriodicOrbit(word, tuple([x // g for x in xs]), den // g)
        raise RuntimeError("orbit reconstruction failed; table out of sync")


def orbit_table(system: PiecewiseAffineMVSystem, max_period: int) -> OrbitTable:
    """Every periodic orbit up to max_period (``visit_periodic_orbits``, in
    its order), built a block at a time.

    Each block's float points are one array division of its numerators by
    its denominators.  An int64 value below 2^53 converts to float exactly,
    so the quotient is rounded once, as Python's int division ``x / d``
    rounds it; the batched path's numerators lie in [0, d], so its blocks
    need only d < 2^53.  Blocks beyond that bound, and the per-word path's
    object blocks, divide as Python ints.  Each block's barycentres are
    summed from its float points, so the temporaries stay the size of a
    block."""
    import numpy as np

    letter_type = np.min_scalar_type(len(system.branches) - 1)
    letters = bytearray()
    flat, centres = array("d"), array("d")
    shapes: list[tuple[int, int]] = []  # (rows, period) per block

    def consume(words, numerators, denominators):
        if numerators.dtype != object and denominators.max() >= _FLOAT_EXACT:
            numerators, denominators = numerators.astype(object), denominators.astype(object)
        points = np.asarray(numerators / denominators[:, None], dtype=np.float64)
        flat.frombytes(points.tobytes())
        letters.extend(words.astype(letter_type).tobytes())
        shapes.append(words.shape)
        turns = points * (2 * np.pi)
        centre = np.empty((len(points), 2))
        centre[:, 0] = np.cos(turns).sum(axis=1)
        centre[:, 1] = np.sin(turns, out=turns).sum(axis=1)
        centre /= words.shape[1]
        centres.frombytes(centre.tobytes())

    visit_periodic_orbits(system, max_period, consume)
    if not shapes:
        raise ValueError("the system has no periodic orbits up to that period")
    pts = np.frombuffer(flat, dtype=np.float64)
    period_arr = np.concatenate([np.full(rows, k) for rows, k in shapes])
    starts = np.concatenate(([0], np.cumsum(period_arr)[:-1]))
    return OrbitTable(system, np.frombuffer(letters, dtype=letter_type), pts, starts, period_arr,
                      np.frombuffer(centres, dtype=np.float64).reshape(-1, 2))


# eps, a bound on |s - m| for CosWave(theta), where m is a row's mean as
# ``_row_means`` computes it and s its score from the row's barycentre;
# ``beta_lower`` shows |s - m| < eps / 8
COS_SCORE_ERROR = 2.0 ** -40


def _row_means(values: np.ndarray, starts: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """The mean of each row of ``values`` (``np.add.reduceat`` at
    ``starts``, over ``periods``), summed again at a scale where the sum
    overflows and held to the row's largest value; see ``beta_lower``."""
    import numpy as np

    with np.errstate(over="ignore"):
        sums = np.add.reduceat(values, starts)
    means = sums / periods
    over = ~np.isfinite(sums)
    if over.any():
        k = int(periods.max()).bit_length()
        scaled = np.add.reduceat(np.ldexp(values, -k), starts)[over]
        means[over] = np.ldexp(scaled / periods[over], k)
    np.minimum(means, np.maximum.reduceat(values, starts), out=means)
    return means


def beta_lower(table: OrbitTable, f) -> tuple[float, PeriodicOrbit]:
    """Best average of f over the exact periodic orbits of ``table``: a
    valid lower bound for the system the table was built for, read off the
    table alone.

    Each row's mean is ``np.add.reduceat`` of f at its float points over
    its period.  A row whose float sum overflows is summed again over its
    values times 2^-k, with 2^k at least the longest period, which no sum
    of finite values can overflow; the scaling is exact, and its mean is
    scaled back.  Every other row keeps its plain sum.  Each row's mean is
    then held to at most the row's largest value: a rounded mean of equal
    values can land an ulp above them, and the bound would then exceed
    every orbit's true average.  The witness is the first row, in table
    order, of the largest mean.

    For ``CosWave(theta)`` the mean of cos 2 pi (x - theta) over a row is
    Re(e^(-2 pi i theta) z), z the row's barycentre, so the best row is
    read off the barycentres (Bousch 2000, Jenkinson 2019: a support
    function of the barycentre set) in O(rows) per theta: the score s =
    re cos 2 pi theta + im sin 2 pi theta of every row, and the candidates
    with s >= max(s) - 2 eps, eps = ``COS_SCORE_ERROR``.  Only the
    candidates' means are computed, by the expression above on their
    gathered points, so they get the same floats, and the first largest in
    table order is the same row.  No row of the largest mean m* is left
    out: with the best scored row b, s(r) >= m(r) - eps = m* - eps >=
    m(b) - eps >= s(b) - 2 eps.

    The bound eps, for points and theta in [0, 1], periods k up to
    ``ORBIT_PERIOD_LIMIT`` = 24 and u = 2^-53: the rounded argument of each
    cos (x - theta, times the float 2 pi) is off by at most 2^-48, and
    numpy's cos and sin are within 4 ulps, 2^-51, so each value is off by
    less than 2^-47; a float sum of k terms of size at most 1 is off by at
    most k^2 u / 2, so a mean by k u / 2 + u < 2^-48.  So the mean m is off
    by less than 2^-46 from the exact mean of the exact cos over the row's
    float points, at the float theta; holding m to the row's largest value
    leaves it between m and the exact mean of the row's values, no farther
    off.  Likewise re and im are each off by less than 2^-46, and
    cos 2 pi theta and sin 2 pi theta by less than 2^-47, so with |z| <= 1
    and three roundings s is off by less than 2^-44 from the same exact
    mean: |s - m| < 2^-43, an eighth of eps."""
    import numpy as np

    if isinstance(f, CosWave):
        turn = 2 * math.pi * float(f.theta)
        score = table.centres @ (math.cos(turn), math.sin(turn))
        index = np.flatnonzero(score >= score.max() - 2 * COS_SCORE_ERROR)
        points, starts, periods = table.rows(index)
    else:
        index, points, starts, periods = None, table.points, table.starts, table.periods
    means = _row_means(f.values(points), starts, periods)
    best = int(np.argmax(means))
    return float(means[best]), table.orbit(best if index is None else int(index[best]))


# ---------------------------------------------------------------------------
# Outer grid systems (upper bounds)


@dataclass(frozen=True)
class GridModel:
    """Outer approximation of ``circle`` on equal cells of [0, 1], kept as the
    Howard solver prepared for its grid graph: every theta of a sweep solves
    the same grid, warm-started from the previous theta's final policy."""

    circle: PiecewiseAffineMVSystem
    howard: HowardSolver

    @property
    def system(self) -> FiniteMVSystem:  # the grid graph, one state per cell
        return self.howard.system

    def weights(self, f) -> np.ndarray:
        """f at the midpoint of each edge's tail cell, in edge order."""
        import numpy as np

        g = self.system.n_states
        return f.values((np.arange(g) + 0.5) / g)[self.system.edge_array[:, 0]]


def outer_grid_system(system: PiecewiseAffineMVSystem, grid_n: int) -> GridModel:
    """Cell a links to cell b iff some branch image of (cell a intersected
    with the branch domain) meets cell b; wrapping images are split mod 1.

    Cells are closed, [a/g, (a+1)/g], and so are the images.  Decided in
    integers, one branch at a time: with slope p/q, offset e/f and domain
    [ln/ld, hn/hd], every x end is u/D over D = lcm(g, ld, hd) and its image
    is (p f u + e q D)/E over E = q f D, a multiple of g.  The cells meeting
    [y1/E, y2/E] are ceil(y1 g/E) - 1 through floor(y2 g/E), clipped to the
    grid."""
    import numpy as np

    g = int(grid_n)
    if g < GRID_MIN:
        raise ValueError(f"grid_n must be at least {GRID_MIN}")
    # edge (a, b) is the code a * g + b; each cell and branch adds the codes
    # of whole runs of head cells, [first, end)
    firsts, ends = array("q"), array("q")
    for br in system.branches:
        p, q = br.slope.numerator, br.slope.denominator
        e, f = br.offset.numerator, br.offset.denominator
        x_den = math.lcm(g, br.lo.denominator, br.hi.denominator)
        y_den = q * f * x_den
        x_step, y_step = x_den // g, y_den // g
        lo = br.lo.numerator * (x_den // br.lo.denominator)
        hi = br.hi.numerator * (x_den // br.hi.denominator)
        pf, eqd = p * f, e * q * x_den
        for a in range(max(-(-lo // x_step) - 1, 0), min(hi // x_step, g - 1) + 1):
            y1 = pf * max(a * x_step, lo) + eqd
            y2 = pf * min((a + 1) * x_step, hi) + eqd
            if y1 > y2:
                y1, y2 = y2, y1
            row = a * g
            if br.wraps:
                y1, y2 = y1 % y_den, y2 - y1 // y_den * y_den
                while y2 > y_den:  # a full turn to 1; the next span starts at 0
                    firsts.append(row + max(-(-y1 // y_step) - 1, 0))
                    ends.append(row + g)
                    y1, y2 = 0, y2 - y_den
                if y2 == y_den:  # a closed image touching 1 also meets cell 0
                    firsts.append(row)
                    ends.append(row + 1)
            firsts.append(row + max(-(-y1 // y_step) - 1, 0))
            ends.append(row + min(y2 // y_step, g - 1) + 1)
    first = np.frombuffer(firsts, dtype=np.int64)
    size = np.maximum(np.frombuffer(ends, dtype=np.int64) - first, 0)
    offset = np.cumsum(size) - size  # where each run starts among all codes
    codes = np.repeat(first - offset, size) + np.arange(size.sum())
    codes.sort()
    # sorted distinct codes are the canonical (tail, head) order
    tails, heads = np.divmod(codes[np.concatenate(([True], codes[1:] != codes[:-1]))], g)
    return GridModel(system, HowardSolver(FiniteMVSystem.from_arrays(g, tails, heads)))


def beta_upper(model: GridModel, f) -> float:
    """Certified upper bound for the circle system ``model.circle``, read off
    the model alone: the grid's maximum cycle mean of f at cell centers,
    plus the margin L/g * lambda/(lambda - 1), with g the grid's cell count
    and lambda the circle system's least expansion.

    The cycle mean is solved by Howard policy iteration
    (``max_mean_cycle_value_float``) on the model's prepared solver, which
    starts from the final policy of the model's previous solve.  It returns
    the upper bound on every grid cycle mean given by its potential check
    (it raises instead when that bound exceeds the policy's value by more
    than ``float_tolerance`` of the weights); the bound holds up to float
    rounding, wherever the iteration started."""
    lipschitz = getattr(f, "lipschitz", None)
    if lipschitz is None:
        raise ValueError("beta_upper needs a function with a Lipschitz constant")
    alpha = max_mean_cycle_value_float(model.system, model.weights(f), model.howard)
    lam = float(model.circle.min_expansion())
    margin = float(lipschitz) / model.system.n_states * lam / (lam - 1.0)
    return alpha + margin


# ---------------------------------------------------------------------------
# Parameter sweeps


@dataclass(frozen=True)
class SweepRow:
    theta: Fraction
    beta_lower: float
    beta_upper: float
    witness_period: int

    def __post_init__(self):
        if self.beta_lower > self.beta_upper:
            raise ValueError("lower bound exceeds upper bound")


def make_family(family: str, theta, metric: str = "interval"):
    if family == "cos":
        return CosWave(theta)
    if family == "negdist":
        return NegDistance(theta, metric)
    raise ValueError(f"unknown function family {family!r}")


def theta_sweep(systems: Sequence[PiecewiseAffineMVSystem], family: str,
                thetas: Sequence, max_period: int, grid_n: int) -> list[list[SweepRow]]:
    """Per system, one SweepRow per theta, reusing the orbit table and grid.

    The orbit table is built once per system, a block of orbits at a time
    (``orbit_table``).  The grid is built once per system with its Howard
    solver prepared (``outer_grid_system``), and each theta's ``beta_upper``
    starts from the previous theta's final policy on that grid: neighbouring
    thetas have nearby weights, so the warm start saves iterations (77 in
    place of 93 per pass of the benchmark sweep), while the potential check
    keeps each bound independent of where the iteration started."""
    out: list[list[SweepRow]] = []
    for system in systems:
        table = orbit_table(system, max_period)
        model = outer_grid_system(system, grid_n)
        rows = []
        for theta in thetas:
            f = make_family(family, theta, system.metric)
            low, orbit = beta_lower(table, f)
            high = beta_upper(model, f)
            rows.append(SweepRow(Fraction(theta), low, high, orbit.period))
        out.append(rows)
    return out


# ---------------------------------------------------------------------------
# Barycentre hull


@dataclass(frozen=True)
class BarycentrePoint:
    orbit: PeriodicOrbit
    value: complex
    on_hull: bool
    sturmian: bool


def barycentre_hull(system: PiecewiseAffineMVSystem, max_period: int
                    ) -> tuple[list[BarycentrePoint], list[tuple[float, float]]]:
    """Barycentres of all periodic orbits up to max_period, with exact-hull
    extremality flags and the Sturmian arc classification over the system's
    ``sturmian_arc`` (1/2 when it has none); and the hull's vertices, anticlockwise.

    The barycentres are float approximations, evaluated in floating point
    from the orbits' integer points, each point rounded once.  The hull is
    exact over those float values (each read as its exact binary rational by
    the integer orientation kernel), not over the true barycentres: among
    nearly collinear barycentres, the flags can differ from the exact set's.
    ``geometry.hull_candidates`` first drops the barycentres that a
    certified float test places strictly inside the hull, so the one exact
    ``convex_hull`` sees only the rest and returns the hull of all.  Each
    Fraction vertex is a float pair exactly, so the flags are read off the
    polygon's vertex set directly."""
    import numpy as np

    arc_length = system.sturmian_arc if system.sturmian_arc is not None else Fraction(1, 2)
    orbits = enumerate_periodic_orbits(system, max_period)
    values = [barycentre(o) for o in orbits]
    z = np.array(values, dtype=np.complex128)
    keep = hull_candidates(z.real, z.imag)
    candidates = list(zip(z.real[keep].tolist(), z.imag[keep].tolist()))
    polygon = [(float(x), float(y)) for x, y in convex_hull(candidates)]
    vertices = set(polygon)
    out = []
    for orbit, value in zip(orbits, values):
        out.append(
            BarycentrePoint(
                orbit=orbit,
                value=value,
                on_hull=(value.real, value.imag) in vertices,
                sturmian=is_sturmian(orbit, arc_length),
            )
        )
    return out, polygon
