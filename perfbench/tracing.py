"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced function by a timing wrapper in
every loaded ``mvergo`` module that holds it, so the wrapper is found under
whatever name the caller looks up (``from .x import f`` copies, and local
imports that read the defining module at call time).  The verify suites are
traced by wrapping the check functions held in ``mvergo.verify.SUITES``.
``uninstall`` puts the originals back, so untraced passes run unmodified
code.

A span's self time is its duration minus the time covered by traced spans it
called.  Counters are computed from arguments and results at the same
boundaries.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict


def _count_orbits(tracer, args):
    """Count the orbits streamed to visit_periodic_orbits' consumer."""
    system, max_period, consume = args[:3]

    def counting(word, numerators, denom):
        tracer.counts["circle.orbits"] += 1
        tracer.counts["circle.orbit_points"] += len(numerators)
        return consume(word, numerators, denom)

    return (system, max_period, counting) + tuple(args[3:])


def _karp_table(tracer, args, result):
    n = args[0].n_states
    tracer.peaks["mea.karp_table_bytes"] = max(tracer.peaks["mea.karp_table_bytes"],
                                               (n + 1) * n * 8)


def _relaxations(tracer, args, result):
    tracer.counts["mea.relaxations"] += args[0].n_states * len(args[0].edges)


def _cycles(tracer, args, result):
    tracer.counts["system.cycles"] += len(result)
    if tracer.current() == "measures.extreme_invariant_measures":
        tracer.counts["measures.candidates"] += len({frozenset(c) for c in result})


def _counter(name, size):
    def after(tracer, args, result):
        tracer.counts[name] += size(result)
    return after


# (module, function, span name, argument hook, result hook)
SPANS = (
    ("mvergo.cli", "main", "cli", None, None),
    ("mvergo.circle", "visit_periodic_orbits", "circle.visit_periodic_orbits", _count_orbits, None),
    ("mvergo.circle", "enumerate_periodic_orbits", "circle.enumerate_periodic_orbits", None, None),
    ("mvergo.circle", "is_sturmian", "circle.is_sturmian", None, None),
    ("mvergo.bounds", "orbit_table", "bounds.orbit_table", None, None),
    ("mvergo.bounds", "outer_grid_system", "bounds.outer_grid_system", None,
     _counter("bounds.grid_edges", lambda model: len(model.system.edges))),
    ("mvergo.bounds", "beta_lower", "bounds.beta_lower", None, None),
    ("mvergo.bounds", "beta_upper", "bounds.beta_upper", None, None),
    ("mvergo.bounds", "theta_sweep", "bounds.theta_sweep", None, None),
    ("mvergo.bounds", "barycentre_hull", "bounds.barycentre_hull", None, None),
    ("mvergo.mea", "max_mean_cycle_value_float", "mea.max_mean_cycle_value_float", None, _karp_table),
    ("mvergo.mea", "max_mean_cycle_value", "mea.max_mean_cycle_value", None, _relaxations),
    ("mvergo.mea", "tight_edges", "mea.tight_edges", None, None),
    ("mvergo.mea", "delta_sequence", "mea.delta_sequence", None, None),
    ("mvergo.mea", "delta_finite_horizon", "mea.delta_finite_horizon", None, None),
    ("mvergo.mea", "brute_force_alpha", "mea.brute_force_alpha", None, None),
    ("mvergo.subaction", "compute_phi", "subaction.compute_phi", None, None),
    ("mvergo.subaction", "verify_mane", "subaction.verify_mane", None,
     _counter("subaction.tight_edges", lambda r: len(r.tight_edge_ids))),
    ("mvergo.measures", "convex_combination", "measures.convex_combination", None, None),
    ("mvergo.measures", "is_invariant", "measures.is_invariant", None, None),
    ("mvergo.measures", "extreme_invariant_measures", "measures.extreme_invariant_measures", None,
     _counter("measures.extremes", len)),
    ("mvergo.system", "simple_cycles", "system.simple_cycles", None, _cycles),
    ("mvergo.system", "graph_system", "system.graph_system", None, None),
    ("mvergo.geometry", "convex_hull", "geometry.convex_hull", None,
     _counter("geometry.hull_vertices", len)),
    ("mvergo.io", "load_system", "io.load_system", None, None),
    ("mvergo.svg", "line_chart", "svg.line_chart", None, None),
    ("mvergo.svg", "hull_chart", "svg.hull_chart", None, None),
)

VERIFY_SUITES = ("alpha-oracle", "delta-bounds", "epsilon-witness", "graph-lift",
                 "mane-subaction", "measures")

# Span-coverage table: metric name -> workloads on which it must be non-zero,
# so that a function that is no longer wrapped cannot silently report zero.
_SWEEP, _HULL, _LARGE, _SMALL = ("sweep",), ("hull",), ("finite-large",), ("finite-small",)
_FINITE = _LARGE + _SMALL
_TIMED = {
    "cli": _SWEEP + _HULL + _FINITE,
    "circle.visit_periodic_orbits": _SWEEP + _HULL,
    "circle.enumerate_periodic_orbits": _HULL,
    "circle.is_sturmian": _HULL,
    "bounds.orbit_table": _SWEEP,
    "bounds.outer_grid_system": _SWEEP,
    "bounds.beta_lower": _SWEEP,
    "bounds.beta_upper": _SWEEP,
    "bounds.theta_sweep": _SWEEP,
    "bounds.barycentre_hull": _HULL,
    "mea.max_mean_cycle_value_float": _SWEEP,
    "mea.max_mean_cycle_value": _FINITE,
    "mea.tight_edges": _FINITE,
    "mea.delta_sequence": _LARGE,
    "mea.delta_finite_horizon": _SMALL,
    "mea.brute_force_alpha": _SMALL,
    "subaction.compute_phi": _LARGE,
    "subaction.verify_mane": _LARGE,
    "measures.convex_combination": _SMALL,
    "measures.is_invariant": _SMALL,
    "measures.extreme_invariant_measures": _SMALL,
    "system.simple_cycles": _SMALL,
    "system.graph_system": _SMALL,
    "geometry.convex_hull": _HULL,
    "io.load_system": _FINITE,
    "svg.line_chart": _SWEEP,
    "svg.hull_chart": _HULL,
    **{f"verify.{name}": _SMALL for name in VERIFY_SUITES},
}
# spans reported with self time only
_SELF_ONLY = {"cli", "io.load_system", "svg.line_chart", "svg.hull_chart",
              *(f"verify.{name}" for name in VERIFY_SUITES)}
COUNTS = {
    "circle.orbits": _SWEEP + _HULL,
    "circle.orbit_points": _SWEEP + _HULL,
    "bounds.grid_edges": _SWEEP,
    "bounds.gap_mean": _SWEEP,
    "mea.karp_table_bytes": _SWEEP,
    "mea.relaxations": _FINITE,
    "subaction.tight_edges": _LARGE,
    "measures.candidates": _SMALL,
    "measures.extremes": _SMALL,
    "system.cycles": _SMALL,
    "geometry.hull_vertices": _HULL,
}
UNITS = {"mea.karp_table_bytes": "bytes", "bounds.gap_mean": "1"}


def per_layer_metrics() -> dict[str, tuple[str, tuple[str, ...]]]:
    """Every per-layer metric: name -> (unit, workloads it must fire on)."""
    out = {}
    for span, workloads in _TIMED.items():
        out[f"{span}.self_s"] = ("s", workloads)
        if span not in _SELF_ONLY:
            out[f"{span}.calls"] = ("count", workloads)
    for name, workloads in COUNTS.items():
        out[name] = (UNITS.get(name, "count"), workloads)
    out["trace.overhead_s"] = ("s", ())
    return out


class Tracer:
    """Span self times, call counts and layer counters of traced passes."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span name, seconds spent in child spans]
        self._restore: list[tuple[object, str, object]] = []

    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name: str, fn, before=None, after=None):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_s[name] += elapsed - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name, *_ in SPANS:
            importlib.import_module(module_name)
        modules = [m for key, m in sys.modules.items()
                   if key == "mvergo" or key.startswith("mvergo.")]
        for module_name, attr, name, before, after in SPANS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(name, original, before, after)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, traced)
        verify = importlib.import_module("mvergo.verify")
        suites = verify.SUITES
        if tuple(name for name, _ in suites) != VERIFY_SUITES:
            raise RuntimeError(f"verify suites changed: {[name for name, _ in suites]}")
        self._restore.append((verify, "SUITES", suites))
        verify.SUITES = tuple((name, self.wrap(f"verify.{name}", check)) for name, check in suites)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def metrics(self, passes: int, observed: dict[str, float]) -> dict[str, float]:
        """Per-pass values of every per-layer metric except trace.overhead_s."""
        out = {}
        for span in _TIMED:
            out[f"{span}.self_s"] = self.self_s[span] / passes
            if span not in _SELF_ONLY:
                out[f"{span}.calls"] = self.calls[span] / passes
        for name in COUNTS:
            if name in self.peaks:
                out[name] = self.peaks[name]
            elif name in observed:
                out[name] = observed[name]
            else:
                out[name] = self.counts[name] / passes
        return out


def coverage_gaps(workload: str, values: dict[str, float]) -> list[str]:
    """Per-layer metrics that should have fired on this workload but read 0."""
    return [name for name, (_unit, workloads) in per_layer_metrics().items()
            if workload in workloads and not values.get(name)]
