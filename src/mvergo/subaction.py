"""Subactions for finite systems: the backward-orbit potential, the bounded
correction v, and per-edge slack verification of f + v(tail) - v(head) <= beta,
which with one cycle of tight edges certifies beta without a solver.

Maximizing cycles live exactly on the tight (zero-slack) edges, which is the
computational value of the construction: the support of every maximizing
measure is pinned down by one potential, ``mea``'s reduced-weight fixpoint
in the format of ``_numbers.scaled``, whose zero gaps under max(0, phi) are
``mea.tight_edges``.  Every equality decision allows ``tie_tolerance(f)``:
none for rational f, the float policy's slack for float f.

Each step puts its inputs in the format of ``_numbers.scaled`` once: when
they are all rational, the fill of v and every slack are Python ints over
one denominator, and a Fraction is built only for a value handed back.  A
float among the inputs (float f, or rational f with a float beta) leaves
them as they are, so the same code runs the float expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ._numbers import NEG_INF, ValidationError, check_float_range, divide, scaled, tie_tolerance
from .mea import NoCycleError, PositiveCycleError, _reduced_fixpoint, max_mean_cycle_value
from .system import FiniteMVSystem, eventual_domain, lift_function


class ViolatedEdgeError(ValidationError):
    """Some edge violates the subaction inequality beyond the tolerance."""

    prefix = "subaction verification failed"

    def __init__(self, edge: tuple[int, int], slack):
        super().__init__(f"edge {edge} has negative slack {slack}")
        self.edge = edge
        self.slack = slack


class BetaNotAttainedError(ValidationError, ValueError):
    """No cycle of tight edges: beta bounds every cycle mean, but no cycle
    attains it, so it is not the maximum ergodic average."""

    prefix = "subaction verification failed"


@dataclass(frozen=True)
class SubactionResult:
    """Certified subaction data: beta, the extended-real potential phi (the
    NEG_INF sentinel on predecessor-free states), the real correction v,
    per-edge slack, the tight edge ids, and the id of the first edge of
    least slack, found with the slacks."""

    beta: object
    phi: tuple
    v: tuple
    slack: tuple
    tight_edge_ids: tuple[int, ...]
    worst_edge_id: int


def compute_phi(system: FiniteMVSystem, f: Sequence, beta) -> tuple:
    """Backward-orbit supremum of reduced sums: phi(x) is the supremum over
    n >= 1 and orbit segments ending at x of (sum of f along the segment)
    minus n * beta.

    It is ``mea._reduced_fixpoint`` at ``tie_tolerance(f)``, which raises
    PositiveCycleError when beta is below the maximum; float reduced weights
    must pass ``check_float_range``.
    """
    if len(f) != len(system.edges):
        raise ValueError("edge function length must equal the edge count")
    (g, (scaled_beta,)), d = scaled(f, (beta,))
    reduced = [w - scaled_beta for w in g]
    if d is None:
        check_float_range(reduced, system.n_states)
    phi = _reduced_fixpoint(system, reduced, tie_tolerance(f))
    return tuple([NEG_INF if p is None else divide(p, 1, d) for p in phi])


def compute_v(phi: Sequence, f: Sequence, beta) -> tuple:
    """The bounded correction: v = phi on its finite part and the constant
    -M - max(f) + beta where phi is the -infinity sentinel, with M the
    largest |phi| on the finite part (0 if none) and max(f) taken as 0 on a
    system without edges, where no edge constrains v.  M and the fill are
    taken in the format of ``_numbers.scaled``, over one denominator for
    phi, f and beta."""
    finite = [p for p in phi if p is not NEG_INF]
    if any(isinstance(p, float) and p == float("inf") for p in finite):
        raise ValueError("phi must not contain +infinity")
    (finite, g, (b,)), d = scaled(finite, f, (beta,))
    fill = divide(-max(map(abs, finite), default=0) - max(g, default=0) + b, 1, d)
    return tuple([p if p is not NEG_INF else fill for p in phi])


def verify_mane(system: FiniteMVSystem, f: Sequence, v: Sequence, beta, phi=None) -> SubactionResult:
    """Check f + v(tail) - v(head) <= beta edge by edge, and certify beta as
    the maximum ergodic average from the slacks alone.

    For rational inputs every slack beta - (f + v(tail) - v(head)) is a
    Python int over the one denominator of f, v and beta, each decision
    below compares ints, and each returned slack is one ``Fraction``; a
    float among the inputs keeps the float expressions.

    With tol = ``tie_tolerance(f)``, raises ViolatedEdgeError on the worst
    edge if any slack drops below -tol.
    Then the slacks sum around every cycle to its length times beta minus its
    weight, so beta is at least every cycle mean, up to tol; and a cycle of
    tight edges (slack <= tol) has its mean within tol of beta.  Raises
    BetaNotAttainedError when the tight edges hold no cycle, NoCycleError
    when the system has none.  No solver is called.
    ``phi`` is carried through into the result when supplied (callers that
    built v from the potential).
    """
    if len(f) != len(system.edges):
        raise ValueError("edge function length must equal the edge count")
    if len(v) != system.n_states:
        raise ValueError("v length must equal n_states")
    tol = tie_tolerance(f)  # 0 unless f holds a float, and then D is None
    (g, w, (b,)), d = scaled(f, v, (beta,))
    slack = [b - (gk + w[t] - w[h]) for gk, (t, h) in zip(g, system.edges)]
    worst = min(range(len(slack)), key=slack.__getitem__, default=None)
    if worst is not None and slack[worst] < -tol:
        raise ViolatedEdgeError(system.edges[worst], divide(slack[worst], 1, d))
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
    slack = tuple([divide(s, 1, d) for s in slack])
    return SubactionResult(beta, tuple(phi), tuple(v), slack, tight, worst)


def subaction_for_state_function(system: FiniteMVSystem, f: Sequence, beta=None) -> SubactionResult:
    """Full pipeline for a state function: lift to edges, take beta as the
    maximum ergodic average unless one is given, build phi and v, verify
    every edge and certify beta."""
    f_edge = lift_function(f, system)
    if beta is None:
        beta = max_mean_cycle_value(system, f_edge)
    phi = compute_phi(system, f_edge, beta)
    v = compute_v(phi, f_edge, beta)
    return verify_mane(system, f_edge, v, beta, phi=phi)

