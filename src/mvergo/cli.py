"""Command line front end.

Subcommands: mea, measures, subaction, sweep, hull, verify.  Exit codes:
0 success, 2 validation failure (slack violation, oracle mismatch), 3 input
error (an infinite or NaN number, a float too large for the sums of a pass,
too many simple cycles or distinct cycle supports and a graph that Howard
policy iteration does not solve within its iteration limit included).
A malformed, unknown or out-of-range flag and an unknown or missing
subcommand are input errors too: the parser rejects them before any output.
Identical flags and seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from ._numbers import FloatRangeError, format_number, parse_number
from .bounds import GRID_MIN, barycentre_hull, theta_sweep
from .circle import (
    ORBIT_PERIOD_LIMIT,
    PiecewiseAffineMVSystem,
    doubling_map,
    pq_correspondence,
    three_branch_doubling,
)
from .geometry import convex_hull
from .io import InputFormatError, SystemDocument, load_system, measure_row
from .mea import (
    BRUTE_FORCE_STATE_LIMIT,
    NoCycleError,
    NoPathError,
    PolicyIterationLimitError,
    mea_report,
)
from .measures import TooManySupportsError, extreme_invariant_measures
from .subaction import PIPELINE_ERRORS, failure_message, subaction_for_state_function
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


def _int_in(flag: str, lo: int, hi: float, text: str) -> int:
    """The value of the integer flag ``flag``, which must lie in lo..hi."""
    value = _parse_arg(flag, text, int)
    if not lo <= value <= hi:
        span = f"at least {lo}" if hi == math.inf else f"between {lo} and {hi}"
        raise CliError(f"{flag} must be {span}", EXIT_INPUT)
    return value


def _load_document(path: str) -> SystemDocument:
    """The system document at ``path``; an unreadable or malformed file is an input error."""
    try:
        return load_system(path)
    except (OSError, InputFormatError) as exc:
        raise CliError(f"{path}: {exc}", EXIT_INPUT) from exc


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


def sweep_function(spec: str) -> tuple[str, Fraction | None]:
    """Sweep's ``--f``: the family and the one theta to evaluate (None: sweep the grid)."""
    family, _, theta = spec.partition(":")
    if family not in ("cos", "negdist"):
        raise CliError("sweep takes --f cos[:theta] or --f negdist[:theta]", EXIT_INPUT)
    return family, _parse_arg(spec, theta, lambda t: Fraction(parse_number(t))) if theta else None


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
            doc = _load_document(arg)
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
        doc = _load_document(args.input)
        return doc.system, doc.f_state
    if args.builtin:
        return args.builtin
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
    try:
        result = subaction_for_state_function(system, f, args.beta_override)
    except PIPELINE_ERRORS as exc:
        raise CliError(failure_message(exc), EXIT_VALIDATION) from exc
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
    systems = [args.builtin] if args.builtin else [doubling_map(), three_branch_doubling()]
    family, theta = args.f
    n = args.theta_grid
    thetas = [Fraction(k, n) for k in range(n // 2 + 1)] if theta is None else [theta]
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
    points = barycentre_hull(args.builtin, args.max_period)
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
    report = run_verify(args.seed, count=args.count, max_states=args.max_states)
    _write(Path(args.out) / "verify.txt", report.text())
    print(report.text(), end="")
    return EXIT_OK if report.ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Rejections are input errors (exit 3); the type functions raise CliError."""

    def error(self, message):
        raise CliError(message, EXIT_INPUT)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and then shared."""
    parser = _Parser(
        prog="mvergo",
        description="Maximum ergodic averages, invariant measures and "
                    "subactions for finite multi-valued systems and "
                    "piecewise-affine circle correspondences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, finite=False):
        p = sub.add_parser(name, help=help_text)
        if finite:
            p.add_argument("--input", help="system JSON document")
            p.add_argument("--builtin", type=builtin_finite, help="builtin system name")
        p.add_argument("--out", default="out", help="output directory")
        p.set_defaults(func=func)
        return p

    def int_flag(p, flag, default, lo, hi=math.inf):
        p.add_argument(flag, type=functools.partial(_int_in, flag, lo, hi), default=default)

    state_help = "state function: indicator:i, const:c or file:PATH"
    p = command("mea", cmd_mea, "maximum ergodic average report", finite=True)
    p.add_argument("--f", help=state_help)
    int_flag(p, "--horizon", 64, 0)

    command("measures", cmd_measures, "extreme invariant measures", finite=True)

    p = command("subaction", cmd_subaction, "subaction and slack verification", finite=True)
    p.add_argument("--f", help=state_help)
    p.add_argument("--beta-override", help="force a beta value (diagnostics)",
                   type=lambda text: _parse_arg("--beta-override", text, parse_number))

    p = command("sweep", cmd_sweep, "theta sweep with certified bounds")
    p.add_argument("--builtin", type=builtin_circle, help="restrict to one circle system")
    p.add_argument("--f", type=sweep_function, default="cos",
                   help="function family: cos or negdist, with :theta for one theta")
    int_flag(p, "--theta-grid", 256, 1)
    int_flag(p, "--max-period", 10, 1, ORBIT_PERIOD_LIMIT)
    int_flag(p, "--grid", 2048, GRID_MIN)

    p = command("hull", cmd_hull, "barycentre hull with Sturmian flags")
    p.add_argument("--builtin", type=builtin_circle, default="pq:2,3", help="circle system")
    int_flag(p, "--max-period", 10, 1, ORBIT_PERIOD_LIMIT)

    p = command("verify", cmd_verify, "seeded randomized oracle suites")
    p.add_argument("--seed", type=int, default=0)
    int_flag(p, "--count", 200, 1)
    int_flag(p, "--max-states", 8, 2, BRUTE_FORCE_STATE_LIMIT)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except NoPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (TooManyCyclesError, TooManySupportsError, FloatRangeError,
            PolicyIterationLimitError) as exc:
        print(f"error: input too large: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
