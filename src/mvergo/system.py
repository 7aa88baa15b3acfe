"""Finite multi-valued dynamical systems as directed graphs.

A finite system is a state set {0..n-1} together with the edge relation of
its transition graph: an edge (x, y) means y is a possible successor of x.
Successor sets may be empty and states may have many successors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from ._numbers import InputTooLargeError

if TYPE_CHECKING:
    import numpy as np

# Johnson's enumeration is exponential in the graph, so it stops at a count
# far above the largest any test or benchmark input reaches (39 cycles)
SIMPLE_CYCLE_LIMIT = 100_000


class TooManyCyclesError(InputTooLargeError):
    """The graph has more simple cycles than ``SIMPLE_CYCLE_LIMIT``."""

    def __init__(self, limit: int):
        super().__init__(f"more than {limit} simple cycles; their enumeration stops there")
        self.limit = limit


def _grouped(n: int, pairs) -> tuple[tuple[int, ...], ...]:
    """The values of (key, value) pairs grouped by key in 0..n-1, in pair
    order.  Each group becomes a tuple in place, so no tuple is built by
    resizing."""
    groups: list = [[] for _ in range(n)]
    for k, v in pairs:
        groups[k].append(v)
    for k, group in enumerate(groups):
        groups[k] = tuple(group)
    return tuple(groups)


@dataclass(frozen=True)
class FiniteMVSystem:
    """A finite state set with a directed edge relation.

    ``edges`` is the canonical edge tuple: sorted by (tail, head), no
    duplicates.  Edge ids used throughout the package are indices into this
    tuple.  Instances are immutable and safe to share.
    """

    n_states: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_states <= 0:
            raise ValueError("n_states must be positive")
        prev = None
        for e in self.edges:
            t, h = e
            if not (0 <= t < self.n_states and 0 <= h < self.n_states):
                raise ValueError(f"edge {e} out of range for {self.n_states} states")
            if prev is not None and e <= prev:
                raise ValueError("edges must be strictly sorted by (tail, head)")
            prev = e

    @classmethod
    def make(cls, n_states: int, edges: Iterable[Sequence[int]]) -> "FiniteMVSystem":
        """Build a system from any iterable of (tail, head) pairs, normalizing
        to the canonical sorted, deduplicated edge order."""
        canon = tuple(sorted({(int(t), int(h)) for t, h in edges}))
        return cls(n_states, canon)

    @classmethod
    def from_arrays(cls, n_states: int, tails: np.ndarray, heads: np.ndarray) -> "FiniteMVSystem":
        """Build a system from int64 edge arrays already in the canonical
        order; the arrays, stacked, become its ``edge_array``, so an array
        reader does not rebuild them from the edge tuple."""
        import numpy as np

        system = cls(n_states, tuple(zip(tails.tolist(), heads.tolist())))
        arr = np.stack((tails, heads), axis=1)
        arr.flags.writeable = False
        system.__dict__["edge_array"] = arr  # the slot ``cached_property`` fills
        return system

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The canonical edges as a read-only (m, 2) int64 array."""
        import numpy as np

        arr = np.array(self.edges, dtype=np.int64).reshape(len(self.edges), 2)
        arr.flags.writeable = False
        return arr

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        return _grouped(self.n_states, self.edges)

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        # the edges are sorted by tail, so each group comes out sorted
        return _grouped(self.n_states, ((h, t) for t, h in self.edges))

    @cached_property
    def out_edge_ids(self) -> tuple[tuple[int, ...], ...]:
        return _grouped(self.n_states, ((t, i) for i, (t, _h) in enumerate(self.edges)))

    def has_edge(self, tail: int, head: int) -> bool:
        return (tail, head) in self.edge_index


def _peel(n: int, out_deg: list[int], in_deg: list[int], successors, predecessors,
          stack: list[int]) -> bytearray:
    """The deletions behind ``eventual_domain``: delete each state on the
    stack, and push every neighbour left with no successor or no predecessor
    among the surviving states.  ``successors(x)`` and ``predecessors(x)``
    list x's neighbours, and the degree lists are counted down in place.
    Each state is deleted at most once and each edge of a deleted state is
    visited once from either end, so the cost is linear in the deleted
    states and their edges.  Returns the deletion marks of the n states."""
    dead = bytearray(n)
    while stack:
        x = stack.pop()
        if dead[x]:
            continue
        dead[x] = 1
        for y in predecessors(x):
            out_deg[y] -= 1
            if not out_deg[y]:
                stack.append(y)
        for y in successors(x):
            in_deg[y] -= 1
            if not in_deg[y]:
                stack.append(y)
    return dead


def eventual_domain(system: FiniteMVSystem) -> frozenset[int]:
    """States lying on some bi-infinite orbit.

    The states left after repeatedly deleting every state whose successor
    set or predecessor set (within the surviving states) is empty
    (``_peel``).  Empty iff the graph has no directed cycle.  The cost is
    linear in states plus edges.
    """
    n = system.n_states
    succ, pred = system.successors, system.predecessors
    out_deg = [len(s) for s in succ]
    in_deg = [len(p) for p in pred]
    stack = [x for x in range(n) if not out_deg[x] or not in_deg[x]]
    dead = _peel(n, out_deg, in_deg, succ.__getitem__, pred.__getitem__, stack)
    return frozenset(x for x in range(n) if not dead[x])


def eventual_domain_array(n_states: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """``eventual_domain`` of the system whose canonical edges are the int64
    arrays ``tails`` and ``heads``, as a sorted int64 array, without the
    successor and predecessor tuples: the degrees are counted in numpy, and
    the deletions (``_peel``) read each deleted state's neighbours as slices
    of the edge arrays in tail order and in head order.  Linear in states
    plus edges, with a Python loop over the deleted states only."""
    import numpy as np

    out_deg = np.bincount(tails, minlength=n_states)
    in_deg = np.bincount(heads, minlength=n_states)
    stack = np.flatnonzero((out_deg == 0) | (in_deg == 0)).tolist()
    succ, pred = heads.tolist(), tails[np.argsort(heads, kind="stable")].tolist()
    out_bound = np.concatenate(([0], np.cumsum(out_deg))).tolist()
    in_bound = np.concatenate(([0], np.cumsum(in_deg))).tolist()
    dead = _peel(n_states, out_deg.tolist(), in_deg.tolist(),
                 lambda x: succ[out_bound[x]:out_bound[x + 1]],
                 lambda x: pred[in_bound[x]:in_bound[x + 1]], stack)
    return np.flatnonzero(np.frombuffer(dead, dtype=np.uint8) == 0)


def graph_system(system: FiniteMVSystem) -> FiniteMVSystem:
    """The induced system on edges: states are edge ids, and edge e1 -> e2 is
    present iff head(e1) = tail(e2)."""
    if not system.edges:
        raise ValueError("graph system of an edgeless system has no states")
    out_ids = system.out_edge_ids
    lifted = []
    for i, (_t, h) in enumerate(system.edges):
        for j in out_ids[h]:
            lifted.append((i, j))
    return FiniteMVSystem.make(len(system.edges), lifted)


def lift_function(f: Sequence, system: FiniteMVSystem) -> tuple:
    """Lift a state function to the edge function (x, y) -> f(x)."""
    if len(f) != system.n_states:
        raise ValueError("state function length must equal n_states")
    return tuple([f[t] for t, _h in system.edges])


def _unblock(v: int, blocked: list[bool], blocked_by: dict[int, set[int]]) -> None:
    """Unblock v and, transitively, every blocked vertex waiting on it."""
    todo = [v]
    while todo:
        u = todo.pop()
        blocked[u] = False
        todo.extend(w for w in blocked_by.pop(u, ()) if blocked[w])


def simple_cycles(system: FiniteMVSystem) -> list[tuple[int, ...]]:
    """All simple directed cycles, as state tuples starting at each cycle's
    smallest state.  Johnson's algorithm with an explicit stack, so long
    paths cost no recursion depth; output sorted by (length, states).
    Raises ``TooManyCyclesError`` once more than ``SIMPLE_CYCLE_LIMIT``
    cycles are found.
    """
    n = system.n_states
    live = eventual_domain(system)  # every cycle lies inside it
    succ = [[w for w in heads if w in live] for heads in system.successors]  # sorted
    cycles: list[tuple[int, ...]] = []

    # Johnson: for each root s in increasing order, search the subgraph on
    # vertices >= s, so every cycle is found exactly once, rooted at its
    # minimum vertex.
    for s in sorted(live):
        if succ[s][-1] < s:
            continue
        blocked = [False] * n
        blocked[s] = True
        blocked_by: dict[int, set[int]] = {}
        path, found, frames = [s], [False], [iter(succ[s])]
        while frames:
            for w in frames[-1]:
                if w == s:
                    if len(cycles) == SIMPLE_CYCLE_LIMIT:
                        raise TooManyCyclesError(SIMPLE_CYCLE_LIMIT)
                    cycles.append(tuple(path))
                    found[-1] = True
                elif w > s and not blocked[w]:
                    blocked[w] = True
                    path.append(w)
                    found.append(False)
                    frames.append(iter(succ[w]))
                    break
            else:  # every successor of the top vertex is done
                frames.pop()
                v = path.pop()
                if found.pop():
                    if found:
                        found[-1] = True
                    _unblock(v, blocked, blocked_by)
                else:
                    for w in succ[v]:
                        if w >= s:
                            blocked_by.setdefault(w, set()).add(v)

    cycles.sort(key=lambda c: (len(c), c))
    return cycles
