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
from .geometry import convex_hull
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
    canonical branch words share one letter buffer, sliced like the points by
    ``starts`` and ``periods``, so the exact witness orbit can be rebuilt on
    demand without holding every orbit's integer points in memory.
    """

    system: PiecewiseAffineMVSystem
    letters: bytes           # all canonical branch words, concatenated
    points: np.ndarray       # all orbit points, concatenated
    starts: np.ndarray       # reduceat offsets, one per orbit
    periods: np.ndarray

    @property
    def words(self) -> list[bytes]:
        """The branch word of every row (sliced from ``letters`` on access)."""
        return [self.letters[s:s + k] for s, k in zip(self.starts.tolist(), self.periods.tolist())]

    def orbit(self, index: int) -> PeriodicOrbit:
        """Rebuild the exact orbit behind one table row: solve its stored
        word and keep the candidate whose points round to the row's, put in
        lowest terms."""
        start = int(self.starts[index])
        end = start + int(self.periods[index])
        word = tuple(self.letters[start:end])
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
    object blocks, divide as Python ints."""
    import numpy as np

    letters = bytearray()
    flat = array("d")
    shapes: list[tuple[int, int]] = []  # (rows, period) per block

    def consume(words, numerators, denominators):
        if numerators.dtype != object and denominators.max() >= _FLOAT_EXACT:
            numerators, denominators = numerators.astype(object), denominators.astype(object)
        points = np.asarray(numerators / denominators[:, None], dtype=np.float64)
        flat.frombytes(points.tobytes())
        letters.extend(words.astype(np.uint8).tobytes())
        shapes.append(words.shape)

    visit_periodic_orbits(system, max_period, consume)
    if not shapes:
        raise ValueError("the system has no periodic orbits up to that period")
    pts = np.frombuffer(flat, dtype=np.float64)
    period_arr = np.concatenate([np.full(rows, k) for rows, k in shapes])
    starts = np.concatenate(([0], np.cumsum(period_arr)[:-1]))
    return OrbitTable(system, bytes(letters), pts, starts, period_arr)


def beta_lower(system: PiecewiseAffineMVSystem, f, max_period: int,
               table: OrbitTable | None = None) -> tuple[float, PeriodicOrbit]:
    """Best average of f over exact periodic orbits: a valid lower bound.

    A row whose float sum overflows is summed again over its values times
    2^-k, with 2^k at least the longest period, which no sum of finite
    values can overflow; the scaling is exact, and its mean is scaled back.
    Every other row keeps its plain sum.  Each row's mean is then held to
    at most the row's largest value: a rounded mean of equal values can
    land an ulp above them, and the bound would then exceed every orbit's
    true average."""
    import numpy as np

    if table is None:
        table = orbit_table(system, max_period)
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


# ---------------------------------------------------------------------------
# Outer grid systems (upper bounds)


@dataclass(frozen=True)
class GridModel:
    """Outer approximation of a circle system on equal cells of [0, 1], with
    the Howard solver prepared for its graph: every theta of a sweep solves
    the same grid, warm-started from the previous theta's final policy."""

    system: FiniteMVSystem
    grid_n: int
    centers: np.ndarray      # cell midpoints
    tails: np.ndarray        # edge tails, canonical edge order
    howard: HowardSolver


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
    edges: set[int] = set()  # edge (a, b) as a * g + b
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
                    edges.update(range(row + max(-(-y1 // y_step) - 1, 0), row + g))
                    y1, y2 = 0, y2 - y_den
                if y2 == y_den:  # a closed image touching 1 also meets cell 0
                    edges.add(row)
            edges.update(range(row + max(-(-y1 // y_step) - 1, 0),
                               row + min(y2 // y_step, g - 1) + 1))
    # sorted codes are the canonical (tail, head) order
    fs = FiniteMVSystem(g, tuple([divmod(c, g) for c in sorted(edges)]))
    centers = (np.arange(g) + 0.5) / g
    return GridModel(fs, g, centers, fs.edge_array[:, 0], HowardSolver(fs))


def beta_upper(system: PiecewiseAffineMVSystem, f, grid_n: int,
               model: GridModel | None = None) -> float:
    """Certified upper bound: grid maximum cycle mean of f at cell centers,
    plus the margin L/grid_n * lambda/(lambda - 1).

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
    if model is None:
        model = outer_grid_system(system, grid_n)
    weights = f.values(model.centers)[model.tails]
    alpha = max_mean_cycle_value_float(model.system, weights, model.howard)
    lam = float(system.min_expansion())
    margin = float(lipschitz) / model.grid_n * lam / (lam - 1.0)
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
            low, orbit = beta_lower(system, f, max_period, table)
            high = beta_upper(system, f, grid_n, model)
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


def barycentre_hull(system: PiecewiseAffineMVSystem, max_period: int) -> list[BarycentrePoint]:
    """Barycentres of all periodic orbits up to max_period, with exact-hull
    extremality flags and the Sturmian arc classification over the system's
    ``sturmian_arc`` (1/2 when it has none).

    The barycentres are float approximations, evaluated in floating point
    from the orbits' integer points, each point rounded once.  The hull is
    exact over those float values (each read as its exact binary rational by
    the integer orientation kernel), not over the true barycentres: among
    nearly collinear barycentres, the flags can differ from the exact set's.
    A float pair equals and hashes like its Fraction vertex, so the flags
    are read off the hull's vertex set directly."""
    arc_length = system.sturmian_arc if system.sturmian_arc is not None else Fraction(1, 2)
    orbits = enumerate_periodic_orbits(system, max_period)
    values = [barycentre(o) for o in orbits]
    coords = [(z.real, z.imag) for z in values]
    hull_vertices = set(convex_hull(coords))
    out = []
    for orbit, z, coord in zip(orbits, values, coords):
        out.append(
            BarycentrePoint(
                orbit=orbit,
                value=z,
                on_hull=coord in hull_vertices,
                sturmian=is_sturmian(orbit, arc_length),
            )
        )
    return out
