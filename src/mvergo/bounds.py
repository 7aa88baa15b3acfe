"""Certified bounds on maximum ergodic averages of circle systems.

Lower bounds come from exact periodic orbits; upper bounds from an outer
grid approximation: cells are linked whenever a branch image of one closed
cell meets another, so every true orbit is shadowed by a grid path and the
grid's maximum cycle mean (plus a Lipschitz margin) dominates the true
average.  That cycle mean comes from Howard's policy iteration, checked by
a potential that bounds every grid cycle mean.  The sweep and
barycentre-hull drivers reuse one orbit table and one grid per system across
parameter values.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

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
from .mea import max_mean_cycle_value_float
from .system import FiniteMVSystem

GRID_MIN = 8


# ---------------------------------------------------------------------------
# Function families


class CosWave:
    """f_theta(x) = cos(2 pi (x - theta)); Lipschitz constant 2 pi."""

    family = "cos"

    def __init__(self, theta):
        self.theta = Fraction(theta)
        self.lipschitz = 2 * math.pi

    def __call__(self, x: float) -> float:
        return math.cos(2 * math.pi * (x - float(self.theta)))

    def values(self, xs: np.ndarray) -> np.ndarray:
        return np.cos(2 * np.pi * (xs - float(self.theta)))


class NegDistance:
    """g_theta(x) = -d(x, theta); Euclidean on [0, 1] or intrinsic circle."""

    family = "negdist"

    def __init__(self, theta, metric: str = "interval"):
        self.theta = Fraction(theta)
        self.metric = metric
        self.lipschitz = 1.0

    def __call__(self, x: float) -> float:
        d = abs(x - float(self.theta))
        if self.metric == "circle":
            d = d % 1.0
            d = min(d, 1.0 - d)
        return -d

    def values(self, xs: np.ndarray) -> np.ndarray:
        d = np.abs(xs - float(self.theta))
        if self.metric == "circle":
            d = d % 1.0
            d = np.minimum(d, 1.0 - d)
        return -d


class ConstFunction:
    """Constant function; Lipschitz constant 0."""

    family = "const"

    def __init__(self, c):
        self.c = c
        self.lipschitz = 0.0

    def __call__(self, x: float) -> float:
        return float(self.c)

    def values(self, xs: np.ndarray) -> np.ndarray:
        return np.full(len(xs), float(self.c))


# ---------------------------------------------------------------------------
# Orbit tables (vectorized lower bounds)


@dataclass(frozen=True)
class OrbitTable:
    """Flattened orbit data for vectorized averaging over one system.

    Points are stored as floats (rounded from the exact rationals); the
    canonical branch words share one letter buffer, sliced like the points by
    ``starts`` and ``periods``, so the exact witness orbit can be rebuilt on
    demand without holding every orbit as rational tuples in memory.
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
        word and keep the candidate whose points round to the row's."""
        start = int(self.starts[index])
        end = start + int(self.periods[index])
        word = tuple(self.letters[start:end])
        stored = self.points[start:end]
        unit, rows = _integer_branches(self.system)
        den, orbits = _word_orbits(word, rows, unit)
        for xs in orbits:
            if all(x / den == q for x, q in zip(xs, stored)):
                return PeriodicOrbit(word, tuple(Fraction(x, den) for x in xs))
        raise RuntimeError("orbit reconstruction failed; table out of sync")


def orbit_table(system: PiecewiseAffineMVSystem, max_period: int) -> OrbitTable:
    letters = bytearray()
    periods: list[int] = []
    flat = array("d")

    def consume(word, numerators, denom):
        letters.extend(word)
        periods.append(len(word))
        flat.extend([x / denom for x in numerators])

    visit_periodic_orbits(system, max_period, consume)
    if not periods:
        raise ValueError("the system has no periodic orbits up to that period")
    pts = np.frombuffer(flat, dtype=np.float64)
    period_arr = np.array(periods)
    starts = np.concatenate(([0], np.cumsum(period_arr)[:-1]))
    return OrbitTable(system, bytes(letters), pts, starts, period_arr)


def beta_lower(system: PiecewiseAffineMVSystem, f, max_period: int,
               table: OrbitTable | None = None) -> tuple[float, PeriodicOrbit]:
    """Best average of f over exact periodic orbits: a valid lower bound."""
    if table is None:
        table = orbit_table(system, max_period)
    sums = np.add.reduceat(f.values(table.points), table.starts)
    means = sums / table.periods
    idx = int(np.argmax(means))
    return float(means[idx]), table.orbit(idx)


# ---------------------------------------------------------------------------
# Outer grid systems (upper bounds)


@dataclass(frozen=True)
class GridModel:
    """Outer approximation of a circle system on equal cells of [0, 1]."""

    system: FiniteMVSystem
    grid_n: int
    centers: np.ndarray      # cell midpoints
    tails: np.ndarray        # edge tails, canonical edge order


def _cells_meeting(lo: Fraction, hi: Fraction, g: int) -> range:
    """Indices a with [a/g, (a+1)/g] meeting the closed interval [lo, hi]."""
    a_min = math.ceil(lo * g) - 1
    a_max = math.floor(hi * g)
    return range(max(a_min, 0), min(a_max, g - 1) + 1)


def outer_grid_system(system: PiecewiseAffineMVSystem, grid_n: int) -> GridModel:
    """Cell a links to cell b iff some branch image of (cell a intersected
    with the branch domain) meets cell b; wrapping images are split mod 1."""
    g = int(grid_n)
    if g < GRID_MIN:
        raise ValueError(f"grid_n must be at least {GRID_MIN}")
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


def beta_upper(system: PiecewiseAffineMVSystem, f, grid_n: int,
               model: GridModel | None = None) -> float:
    """Certified upper bound: grid maximum cycle mean of f at cell centers,
    plus the margin L/grid_n * lambda/(lambda - 1).

    The cycle mean is solved by Howard policy iteration
    (``max_mean_cycle_value_float``), which returns the upper bound on every
    grid cycle mean given by its potential check (it raises instead when
    that bound exceeds the policy's value by more than ``float_tolerance``
    of the weights); the bound holds up to float rounding, as Karp's did."""
    lipschitz = getattr(f, "lipschitz", None)
    if lipschitz is None:
        raise ValueError("beta_upper needs a function with a Lipschitz constant")
    if model is None:
        model = outer_grid_system(system, grid_n)
    weights = f.values(model.centers)[model.tails]
    alpha = max_mean_cycle_value_float(model.system, weights)
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
    """Per system, one SweepRow per theta, reusing the orbit table and grid."""
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


def barycentre_hull(system: PiecewiseAffineMVSystem, max_period: int,
                    arc_length=None) -> list[BarycentrePoint]:
    """Barycentres of all periodic orbits up to max_period, with exact-hull
    extremality flags and the Sturmian arc classification."""
    if arc_length is None:
        arc_length = system.sturmian_arc if system.sturmian_arc is not None else Fraction(1, 2)
    orbits = enumerate_periodic_orbits(system, max_period)
    values = [barycentre(o) for o in orbits]
    coords = [(Fraction(z.real), Fraction(z.imag)) for z in values]
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
