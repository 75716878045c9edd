"""Directed graphs on base-b digits.

Houses the mother graph (the superset of all permutiple-graph edges for a
multiplier/base pair), the graph of a single permutiple, simple-cycle
enumeration, reflections, and two reachability tests built on one
iterative walk: :func:`strongly_connected` (one root reaches every node
forward and backward) and the cycle-union test :func:`is_cycle_union`
(every weakly connected part is strongly connected).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from .digits import PermutipleRecord, carry_step, check_multiplier
from .errors import ParameterError
from .value import Value

__all__ = [
    "DigitCycle",
    "DigitGraph",
    "build_mother_graph",
    "enumerate_cycles",
    "graph_of_permutiple",
    "is_cycle_union",
    "strongly_connected",
]


class DigitGraph(Value):
    """A directed graph whose vertices are the digits 0..base-1."""

    __slots__ = ("base", "edges")
    base: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(self.edges))
        if self.base < 2:
            raise ParameterError(f"base must be at least 2, got {self.base}")
        for d1, d2 in self.edges:
            if not (0 <= d1 < self.base and 0 <= d2 < self.base):
                raise ParameterError(f"edge ({d1},{d2}) out of range for base {self.base}")

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(self.base))

    @property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def reflect(self) -> "DigitGraph":
        """Map every edge (d1, d2) to (base-1-d1, base-1-d2); an involution."""
        return DigitGraph(self.base, reflect_pairs(self.edges, self.base - 1))


def reflect_pairs(pairs: Iterable[tuple[int, int]], top: int) -> list[tuple[int, int]]:
    """Each pair (x, y) as (top - x, top - y), an involution: with top = b - 1,
    the reflection of digit pairs."""
    return [(top - x, top - y) for x, y in pairs]


class DigitCycle(Value):
    """A simple directed cycle, stored as its vertex sequence.

    The stored rotation is canonical: the minimum vertex comes first.  A
    single vertex denotes a loop.
    """

    __slots__ = ("base", "vertices")
    base: int
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        vs = tuple(self.vertices)
        if not vs:
            raise ParameterError("a cycle needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise ParameterError(f"cycle vertices must be distinct: {vs}")
        for v in vs:
            if not 0 <= v < self.base:
                raise ParameterError(f"vertex {v} out of range for base {self.base}")
        pivot = vs.index(min(vs))
        object.__setattr__(self, "vertices", vs[pivot:] + vs[:pivot])

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        vs = self.vertices
        return tuple((vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))

    def reflect(self) -> "DigitCycle":
        m = self.base - 1
        return DigitCycle(self.base, tuple(m - v for v in self.vertices))

    def __len__(self) -> int:
        return len(self.vertices)


def build_mother_graph(multiplier: int, base: int) -> DigitGraph:
    """The graph of all digit pairs that can occur in a digit-preserving
    multiplication: edge (d1, d2) is present iff the machine has a
    transition for it, b*c2 + d1 = n*d2 + c1 with carries in 0..n-1
    (:func:`permutiple.digits.carry_step`).
    """
    n, b = multiplier, base
    check_multiplier(n, b)
    edges = ((d, p) for d in range(b) for p in range(b) if carry_step(n, b, d, p) is not None)
    return DigitGraph(b, edges)


def graph_of_permutiple(record: PermutipleRecord) -> DigitGraph:
    """The edge set {(d_j, d_sigma(j))} of a verified record.

    Depends only on the equation (digit and preimage sequences), not on the
    particular permutation chosen for repeated digits.
    """
    return DigitGraph(record.base, frozenset(record.string))


def enumerate_cycles(graph: DigitGraph, max_length: int | None = None) -> list[DigitCycle]:
    """All simple directed cycles of ``graph``, canonically rotated and sorted.

    Anchored depth-first search with an explicit stack: for each root in
    ascending order, grow simple paths through vertices greater than the
    root and record a cycle whenever an edge returns to the root.  Every
    cycle is found exactly once (at its minimum vertex), loops count as
    length-1 cycles, and the output is sorted by vertex tuple, so the
    inventory order is deterministic.  A ``max_length`` keeps only cycles of
    at most that many vertices, and below 1 raises :class:`ParameterError`.
    """
    if max_length is not None and max_length < 1:
        raise ParameterError(f"max_length must be at least 1; got {max_length}")
    adj: dict[int, list[int]] = {}
    for d1, d2 in sorted(graph.edges):
        adj.setdefault(d1, []).append(d2)

    found: list[DigitCycle] = []
    for root in sorted(adj):
        path = [root]
        on_path = {root}
        stack = [iter(adj[root])]  # untried successors of each path vertex
        while stack:
            for w in stack[-1]:
                if w == root:
                    found.append(DigitCycle(graph.base, tuple(path)))
                elif w > root and w not in on_path and (max_length is None or len(path) < max_length):
                    path.append(w)
                    on_path.add(w)
                    stack.append(iter(adj.get(w, ())))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())

    found.sort(key=lambda c: c.vertices)
    return found


def _reach(start: Hashable, adjacency: Mapping[Hashable, list]) -> set:
    """Every node reachable from ``start`` along ``adjacency``, itself included."""
    seen = {start}
    stack = [start]
    while stack:
        for w in adjacency.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _adjacency(edges: Iterable[tuple[Hashable, Hashable]]) -> tuple[dict, dict]:
    """Successor and predecessor lists of an edge list."""
    forward: dict = {}
    backward: dict = {}
    for u, v in edges:
        forward.setdefault(u, []).append(v)
        backward.setdefault(v, []).append(u)
    return forward, backward


def strongly_connected(
    nodes: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
) -> bool:
    """Whether ``edges`` join the nonempty ``nodes`` into one strongly
    connected part: one root reaches every node forward and backward."""
    nodes = set(nodes)
    if not nodes:
        return False
    forward, backward = _adjacency(edges)
    root = next(iter(nodes))
    return nodes <= _reach(root, forward) and nodes <= _reach(root, backward)


def is_cycle_union(edges: Iterable[tuple[Hashable, Hashable]]) -> bool:
    """True iff every edge lies on at least one simple cycle of the graph
    that ``edges`` form.

    An edge lies on a simple cycle exactly when it is a loop or its ends
    reach each other, that is, exactly when every weakly connected part of
    the graph is strongly connected.  One root per part decides that: the
    part is strongly connected iff the root's forward and backward reach
    are the same set.  Linear time, with an explicit stack.
    """
    forward, backward = _adjacency(edges)
    placed: set = set()
    for root in forward:
        if root not in placed:
            part = _reach(root, forward)
            if part != _reach(root, backward):
                return False
            placed |= part
    return True
