"""Command line front end.

Subcommands: mea, measures, subaction, sweep, hull, verify.  Exit codes:
0 success, 2 validation failure (slack violation, oracle mismatch), 3 input
error.  Identical flags and seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from ._numbers import format_number, parse_number
from .bounds import GRID_MIN, barycentre_hull, theta_sweep
from .circle import (
    ORBIT_PERIOD_LIMIT,
    PiecewiseAffineMVSystem,
    doubling_map,
    pq_correspondence,
    three_branch_doubling,
)
from .geometry import convex_hull
from .io import InputFormatError, load_system, measure_row
from .mea import NoCycleError, NoPathError, mea_report
from .measures import extreme_invariant_measures
from .subaction import PositiveCycleError, ViolatedEdgeError, subaction_for_state_function
from .svg import hull_chart, line_chart
from .system import FiniteMVSystem, TooManyCyclesError, lift_function
from .verify import run_verify

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INPUT = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Builtin systems and functions


def _parse_arg(spec: str, arg: str, parse):
    """``parse(arg)``, with a malformed argument reported as an input error."""
    try:
        return parse(arg)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise CliError(f"bad argument {arg!r} in {spec!r}", EXIT_INPUT) from exc


def builtin_finite(spec: str) -> tuple[FiniteMVSystem, tuple | None]:
    """Finite builtin systems: z4, identity:N, selfloop:c."""
    name, _, arg = spec.partition(":")
    if name == "z4":
        n = 4
        edges = [(x, (x + 1) % n) for x in range(n)] + [(x, (x - 1) % n) for x in range(n)]
        return FiniteMVSystem.make(n, edges), None
    if name == "identity":
        n = _parse_arg(spec, arg, int) if arg else 3
        if n < 1:
            raise CliError(f"identity:N needs N >= 1, got {n}", EXIT_INPUT)
        return FiniteMVSystem.make(n, [(x, x) for x in range(n)]), None
    if name == "selfloop":
        c = _parse_arg(spec, arg, parse_number) if arg else Fraction(0)
        return FiniteMVSystem.make(1, [(0, 0)]), (c,)
    raise CliError(f"unknown finite builtin {spec!r}", EXIT_INPUT)


def builtin_circle(spec: str) -> PiecewiseAffineMVSystem:
    name, _, arg = spec.partition(":")
    if name == "doubling":
        return doubling_map()
    if name == "threebranch":
        return three_branch_doubling()
    if name == "pq":
        try:
            p_str, q_str = arg.split(",")
            return pq_correspondence(int(p_str), int(q_str))
        except ValueError as exc:
            raise CliError(f"bad pq spec {spec!r}: {exc}", EXIT_INPUT) from exc
    raise CliError(f"unknown circle builtin {spec!r}", EXIT_INPUT)


def resolve_state_function(spec: str | None, system: FiniteMVSystem, default_f) -> tuple:
    if spec:
        name, _, arg = spec.partition(":")
        if name == "indicator":
            i = _parse_arg(spec, arg, int)
            if not (0 <= i < system.n_states):
                raise CliError(f"indicator state {i} out of range", EXIT_INPUT)
            return tuple(Fraction(1) if x == i else Fraction(0) for x in range(system.n_states))
        if name == "const":
            c = _parse_arg(spec, arg, parse_number)
            return tuple(c for _ in range(system.n_states))
        if name == "file":
            try:
                doc = load_system(arg)
            except OSError as exc:
                raise CliError(f"cannot read {arg}: {exc}", EXIT_INPUT) from exc
            if doc.f_state is None or len(doc.f_state) != system.n_states:
                raise CliError(f"{arg} does not carry f_state for {system.n_states} states", EXIT_INPUT)
            return doc.f_state
        raise CliError(f"unknown function spec {spec!r}", EXIT_INPUT)
    if default_f is not None and len(default_f) == system.n_states:
        return default_f
    raise CliError("no state function: pass --f or put f_state in the input file", EXIT_INPUT)


def load_finite(args) -> tuple[FiniteMVSystem, tuple | None]:
    """The finite system plus its default state function (from the document's
    f_state field or the builtin's attached constant)."""
    if args.input:
        try:
            doc = load_system(args.input)
        except OSError as exc:
            raise CliError(f"cannot read {args.input}: {exc}", EXIT_INPUT) from exc
        except InputFormatError as exc:
            raise CliError(f"{args.input}: {exc}", EXIT_INPUT) from exc
        return doc.system, doc.f_state
    if args.builtin:
        return builtin_finite(args.builtin)
    raise CliError("pass --input FILE or --builtin NAME", EXIT_INPUT)


@contextmanager
def _output(path: Path):
    """``path`` opened for writing, its directory created; an OSError from
    either step or from the writes is an input error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_INPUT) from exc


def _write(path: Path, text: str) -> None:
    with _output(path) as fh:
        fh.write(text)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Commands


def cmd_mea(args) -> int:
    if args.horizon < 0:
        raise CliError("--horizon must be non-negative", EXIT_INPUT)
    system, default_f = load_finite(args)
    f = resolve_state_function(args.f, system, default_f)
    try:
        report = mea_report(system, f, horizon=args.horizon)
    except NoCycleError as exc:
        raise CliError(f"no cycle: {exc}", EXIT_VALIDATION) from exc
    out = Path(args.out)
    block = [
        f"alpha {format_number(report.alpha)}",
        "maximizing_cycle " + "->".join(str(s) for s in report.maximizing_cycle.states),
        f"epsilon_rotation {report.epsilon_rotation}",
        f"tolerance {format_number(report.tolerance)}",
    ]
    _write(out / "mea_report.txt", "\n".join(block) + "\n")
    rows = [[n, format_number(d)] for n, d in report.delta_seq]
    _write_csv(out / "mea_delta.csv", ["n", "delta_n"], rows)
    print(f"alpha = {format_number(report.alpha)}")
    return EXIT_OK


def cmd_measures(args) -> int:
    system, _ = load_finite(args)
    extremes = extreme_invariant_measures(system)
    rows = [measure_row(vm.weights) for vm in extremes]
    header = [f"state_{x}" for x in range(system.n_states)]
    _write_csv(Path(args.out) / "measures.csv", header, rows)
    print(f"{len(extremes)} extreme invariant measures")
    return EXIT_OK


def cmd_subaction(args) -> int:
    system, default_f = load_finite(args)
    f = resolve_state_function(args.f, system, default_f)
    beta = None
    if args.beta_override is not None:
        beta = _parse_arg("--beta-override", args.beta_override, parse_number)
        if isinstance(beta, float) and not math.isfinite(beta):
            raise CliError(f"--beta-override must be finite, got {args.beta_override!r}", EXIT_INPUT)
    try:
        result = subaction_for_state_function(system, f, beta)
    except NoCycleError as exc:
        raise CliError(f"no cycle: {exc}", EXIT_VALIDATION) from exc
    except PositiveCycleError as exc:
        raise CliError(f"positive reduced cycle: {exc}", EXIT_VALIDATION) from exc
    except (ViolatedEdgeError, ValueError) as exc:
        raise CliError(f"subaction verification failed: {exc}", EXIT_VALIDATION) from exc
    out = Path(args.out)
    state_rows = [
        [x, format_number(result.phi[x]), format_number(result.v[x])]
        for x in range(system.n_states)
    ]
    _write_csv(out / "subaction_states.csv", ["state", "phi", "v"], state_rows)
    tight = set(result.tight_edge_ids)
    f_edge = lift_function(f, system)
    edge_rows = [
        [t, h, format_number(f_edge[k]), format_number(result.slack[k]), int(k in tight)]
        for k, (t, h) in enumerate(system.edges)
    ]
    _write_csv(out / "subaction_edges.csv", ["tail", "head", "f", "slack", "tight"], edge_rows)
    print(f"beta = {format_number(result.beta)}, min slack = {format_number(min(result.slack))}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    systems = [doubling_map(), three_branch_doubling()]
    if args.builtin:
        systems = [builtin_circle(args.builtin)]
    if args.theta_grid < 1:
        raise CliError("--theta-grid must be at least 1", EXIT_INPUT)
    if not 1 <= args.max_period <= ORBIT_PERIOD_LIMIT:
        raise CliError(f"--max-period must be between 1 and {ORBIT_PERIOD_LIMIT}", EXIT_INPUT)
    if args.grid < GRID_MIN:
        raise CliError(f"--grid must be at least {GRID_MIN}", EXIT_INPUT)
    k_grid = args.theta_grid
    thetas = [Fraction(k, k_grid) for k in range(k_grid // 2 + 1)]
    family, _, theta_arg = (args.f or "cos").partition(":")
    if family not in ("cos", "negdist"):
        raise CliError("sweep takes --f cos[:theta] or --f negdist[:theta]", EXIT_INPUT)
    if theta_arg:
        thetas = [_parse_arg(args.f, theta_arg, lambda t: Fraction(parse_number(t)))]
    per_system = theta_sweep(systems, family, thetas, args.max_period, args.grid)
    rows = []
    for system, sweep_rows in zip(systems, per_system):
        for row in sweep_rows:
            rows.append([
                format_number(row.theta),
                system.name,
                repr(row.beta_lower),
                repr(row.beta_upper),
                row.witness_period,
            ])
    out = Path(args.out)
    _write_csv(out / "sweep.csv",
               ["theta", "system", "beta_lower", "beta_upper", "witness_period"], rows)
    colors = {"doubling": "#c01414", "threebranch": "#1f5fbf"}
    series = []
    for system, sweep_rows in zip(systems, per_system):
        pts = [(float(r.theta), r.beta_lower) for r in sweep_rows]
        series.append((system.name, colors.get(system.name, "#138813"), pts))
    _write(out / "sweep.svg", line_chart(series, "theta", "beta lower bound"))
    print(f"swept {len(thetas)} theta values over {len(systems)} systems")
    return EXIT_OK


def cmd_hull(args) -> int:
    system = builtin_circle(args.builtin) if args.builtin else pq_correspondence(2, 3)
    if not 1 <= args.max_period <= ORBIT_PERIOD_LIMIT:
        raise CliError(f"--max-period must be between 1 and {ORBIT_PERIOD_LIMIT}", EXIT_INPUT)
    points = barycentre_hull(system, args.max_period)
    rows = []
    for i, bp in enumerate(points):
        rows.append([
            i,
            bp.orbit.period,
            bp.orbit.itinerary_string(),
            repr(bp.value.real),
            repr(bp.value.imag),
            int(bp.on_hull),
            int(bp.sturmian),
        ])
    out = Path(args.out)
    _write_csv(out / "hull.csv",
               ["orbit", "period", "itinerary", "re", "im", "on_hull", "sturmian"], rows)
    scatter = [(bp.value.real, bp.value.imag, bp.on_hull) for bp in points]
    # the flagged vertices span the same polygon as all the barycentres
    hull = [(float(x), float(y)) for x, y in
            convex_hull([(bp.value.real, bp.value.imag) for bp in points if bp.on_hull])]
    _write(out / "hull.svg", hull_chart(scatter, hull))
    n_hull = sum(1 for bp in points if bp.on_hull)
    print(f"{len(points)} orbits, {n_hull} extremal barycentres")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.count < 1:
        raise CliError("--count must be at least 1", EXIT_INPUT)
    if args.max_states < 2:
        raise CliError("--max-states must be at least 2", EXIT_INPUT)
    report = run_verify(args.seed, count=args.count, max_states=args.max_states)
    _write(Path(args.out) / "verify.txt", report.text())
    print(report.text(), end="")
    return EXIT_OK if report.ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvergo",
        description="Maximum ergodic averages, invariant measures and "
                    "subactions for finite multi-valued systems and "
                    "piecewise-affine circle correspondences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, circle=False):
        p.add_argument("--input", help="system JSON document")
        p.add_argument("--builtin", help="builtin system name")
        p.add_argument("--out", default="out", help="output directory")
        if not circle:
            p.add_argument("--f", help="state function: indicator:i or const:c")

    p = sub.add_parser("mea", help="maximum ergodic average report")
    common(p)
    p.add_argument("--horizon", type=int, default=64)
    p.set_defaults(func=cmd_mea)

    p = sub.add_parser("measures", help="extreme invariant measures")
    common(p)
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("subaction", help="subaction and slack verification")
    common(p)
    p.add_argument("--beta-override", help="force a beta value (diagnostics)")
    p.set_defaults(func=cmd_subaction)

    p = sub.add_parser("sweep", help="theta sweep with certified bounds")
    p.add_argument("--builtin", help="restrict to one circle system")
    p.add_argument("--out", default="out")
    p.add_argument("--f", help="function family: cos or negdist")
    p.add_argument("--theta-grid", type=int, default=256)
    p.add_argument("--max-period", type=int, default=10)
    p.add_argument("--grid", type=int, default=2048)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("hull", help="barycentre hull with Sturmian flags")
    p.add_argument("--builtin", help="circle system (default pq:2,3)")
    p.add_argument("--out", default="out")
    p.add_argument("--max-period", type=int, default=10)
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("verify", help="seeded randomized oracle suites")
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--max-states", type=int, default=8)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NoPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TooManyCyclesError as exc:
        print(f"error: input too large: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
