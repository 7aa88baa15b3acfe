"""Subactions for finite systems: the backward-orbit potential, the bounded
correction v, and per-edge slack verification of f + v(tail) - v(head) <= beta.

Maximizing cycles live exactly on the tight (zero-slack) edges, which is the
computational value of the construction: the support of every maximizing
measure is pinned down by one Bellman pass, run on ``mea``'s max-plus
relaxation step over integer-scaled reduced weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._numbers import NEG_INF, tie_tolerance
from .mea import _divide, _relax, _scaled, max_mean_cycle, max_mean_cycle_value
from .system import FiniteMVSystem, lift_function


class PositiveCycleError(Exception):
    """The reduced weights admit a positive cycle: the supplied beta is below
    the true maximum ergodic average."""


class ViolatedEdgeError(Exception):
    """Some edge violates the subaction inequality beyond the tolerance."""

    def __init__(self, edge: tuple[int, int], slack):
        super().__init__(f"edge {edge} has negative slack {slack}")
        self.edge = edge
        self.slack = slack


@dataclass(frozen=True)
class SubactionResult:
    """Certified subaction data: beta, the extended-real potential phi (the
    NEG_INF sentinel on predecessor-free states), the real correction v, the
    bound M on |phi|, per-edge slack, and the tight edge ids."""

    beta: object
    phi: tuple
    v: tuple
    bound: object
    slack: tuple
    tight_edge_ids: tuple[int, ...]


def compute_phi(system: FiniteMVSystem, f: Sequence, beta, tol=0) -> tuple:
    """Backward-orbit supremum of reduced sums: phi(x) is the supremum over
    n >= 1 and orbit segments ending at x of (sum of f along the segment)
    minus n * beta.

    Bellman value iteration on reduced weights; rounds are monotone and
    freeze within n_states rounds unless a reduced cycle is positive, which
    raises PositiveCycleError.
    """
    if len(f) != len(system.edges):
        raise ValueError("edge function length must equal the edge count")
    n = system.n_states
    (g, (scaled_beta,)), d = _scaled(f, (beta,))
    reduced = [w - scaled_beta for w in g]
    tol *= d or 1
    phi = [None] * n
    for _ in range(n + 1):
        nxt = [None] * n
        # the segment may start at any state: the clamped base max(phi, 0)
        _relax(system.edges, reduced, [0 if p is None or p < 0 else p for p in phi], nxt)
        if nxt == phi or tol != 0 and all(
            (a is None) == (b is None) and (a is None or abs(a - b) <= tol)
            for a, b in zip(nxt, phi)
        ):
            return tuple([NEG_INF if p is None else _divide(p, 1, d) for p in nxt])
        phi = nxt
    raise PositiveCycleError(
        "value iteration still improving after n_states + 1 rounds; "
        "beta is below the maximum ergodic average"
    )


def compute_v(phi: Sequence, f: Sequence, beta) -> tuple:
    """The bounded correction: v = phi on its finite part and the constant
    -M - max(f) + beta where phi is the -infinity sentinel."""
    finite = [p for p in phi if p is not NEG_INF]
    if any(isinstance(p, float) and p == float("inf") for p in finite):
        raise ValueError("phi must not contain +infinity")
    bound = max((abs(p) for p in finite), default=Fraction(0))
    fill = -bound - max(f) + beta
    return tuple(p if p is not NEG_INF else fill for p in phi)


def verify_mane(system: FiniteMVSystem, f: Sequence, v: Sequence, beta, tol=0, phi=None) -> SubactionResult:
    """Check f + v(tail) - v(head) <= beta edge by edge.

    Returns the slack report with the tight edge set; raises ViolatedEdgeError
    on the worst edge if any slack drops below -tol, and checks that the
    canonical maximizing cycle is entirely tight.  ``phi`` is carried through
    into the result when supplied (callers that built v from the potential).
    """
    if len(f) != len(system.edges):
        raise ValueError("edge function length must equal the edge count")
    if len(v) != system.n_states:
        raise ValueError("v length must equal n_states")
    slack = tuple(beta - (f[k] + v[t] - v[h]) for k, (t, h) in enumerate(system.edges))
    worst = min(range(len(slack)), key=lambda k: slack[k], default=None)
    if worst is not None and slack[worst] < -tol:
        raise ViolatedEdgeError(system.edges[worst], slack[worst])
    tight = tuple(k for k, s in enumerate(slack) if s <= tol)
    _alpha, cycle = max_mean_cycle(system, f)
    tight_set = set(tight)
    for t, h in cycle.edge_pairs():
        if system.edge_index[(t, h)] not in tight_set:
            raise ValueError(
                f"maximizing cycle edge ({t}, {h}) is not tight; "
                "beta does not match the maximum ergodic average"
            )
    if phi is None:
        phi = tuple(v)
    finite = [p for p in phi if p is not NEG_INF]
    bound = max((abs(p) for p in finite), default=Fraction(0))
    return SubactionResult(beta, tuple(phi), tuple(v), bound, slack, tight)


def subaction_for_state_function(system: FiniteMVSystem, f: Sequence) -> SubactionResult:
    """Full pipeline for a state function: lift to edges, take beta as the
    maximum ergodic average, build phi and v, verify every edge."""
    f_edge = lift_function(f, system)
    beta = max_mean_cycle_value(system, f_edge)
    tol = tie_tolerance(f_edge)
    phi = compute_phi(system, f_edge, beta, tol=tol)
    v = compute_v(phi, f_edge, beta)
    return verify_mane(system, f_edge, v, beta, tol=tol, phi=phi)
