"""The Hoey-Sloane carry machine for single-digit multiplication.

States are the carries 0..n-1, and a mother-graph edge (d1, d2) drives the
one transition c1 -> c2 with ``b*c2 + d1 = n*d2 + c1``, as
:func:`permutiple.digits.carry_step` solves it.  The machine has two
equivalent presentations: a state graph whose edges carry label sets, and
a multigraph with one labeled multi-edge per input; each holds only
machine transitions, checked on construction.  :func:`edge_image` traces a
set of mother-graph edges into the first and :func:`edge_multi_image` a
multiset of them into the second; every other image builder calls one of
the two.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from typing import Iterable, Sequence

from .digits import carry_step, check_multiplier
from .errors import ParameterError, WalkError
from .graphs import DigitCycle, build_mother_graph, reflect_pairs, strongly_connected
from .value import Value

__all__ = [
    "StateGraph",
    "StateMultigraph",
    "build_state_graph",
    "build_state_multigraph",
    "cycle_image",
    "edge_image",
    "edge_multi_image",
    "transition",
    "union_images",
    "walk_states",
]

Pair = tuple[int, int]


def transition(edge: Pair, multiplier: int, base: int) -> Pair:
    """The unique state pair (c1, c2) enabled by a mother-graph input: the
    carries that :func:`permutiple.digits.carry_step` solves for.  Raises
    :class:`ParameterError` for a digit out of range or a non-edge."""
    n, b = multiplier, base
    check_multiplier(n, b)
    d1, d2 = edge
    if not (0 <= d1 < b and 0 <= d2 < b):
        raise ParameterError(f"edge ({d1},{d2}) out of range for base {b}")
    carries = carry_step(n, b, d1, d2)
    if carries is None:
        raise ParameterError(f"({d1},{d2}) is not a mother-graph edge for n={n}, b={b}")
    return carries


class StateGraph(Value):
    """Edge-labeled state graph; each edge holds a sorted set of input pairs.

    ``edges`` is given as a mapping from state pairs (c1, c2) to labels, or
    its items, and kept as a canonical tuple of items sorted by state pair,
    which makes structural equality the graph equality used by the symmetry
    results.  Every label (d1, d2) must drive its edge's transition
    (:func:`permutiple.digits.carry_step`), so no label is on two edges.
    """

    __slots__ = ("multiplier", "base", "states", "edges")
    multiplier: int
    base: int
    states: frozenset[int]
    edges: tuple[tuple[Pair, tuple[Pair, ...]], ...]

    def __post_init__(self) -> None:
        n, b, given = self.multiplier, self.base, self.edges
        check_multiplier(n, b)
        states = frozenset(self.states)
        for c in states:
            if not 0 <= c <= n - 1:
                raise ParameterError(f"state {c} out of range 0..{n - 1}")
        edges: dict[Pair, tuple[Pair, ...]] = {}
        for (c1, c2), labels in given.items() if isinstance(given, Mapping) else given:
            if (c1, c2) in edges:
                raise ParameterError(f"edge ({c1},{c2}) is given more than once")
            edges[c1, c2] = labels = tuple(sorted(set(labels)))
            if labels and (c1 not in states or c2 not in states):
                raise ParameterError(f"edge ({c1},{c2}) uses a state outside the graph")
            for d1, d2 in labels:
                if carry_step(n, b, d1, d2) != (c1, c2):
                    raise ParameterError(f"label ({d1},{d2}) does not drive ({c1},{c2})")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "edges", tuple(sorted(item for item in edges.items() if item[1])))

    def label_map(self) -> dict[Pair, tuple[Pair, ...]]:
        return dict(self.edges)

    def labels(self, c1: int, c2: int) -> tuple[Pair, ...]:
        return self.label_map().get((c1, c2), ())

    def all_labels(self) -> tuple[Pair, ...]:
        out: list[Pair] = []
        for _, labels in self.edges:
            out.extend(labels)
        return tuple(sorted(out))

    def reflect(self) -> "StateGraph":
        """States map to n-1-c, labels to (b-1-d1, b-1-d2); an involution."""
        n, b = self.multiplier, self.base
        pairs = reflect_pairs((pair for pair, _ in self.edges), n - 1)
        edge_labels = {pair: reflect_pairs(ls, b - 1) for pair, (_, ls) in zip(pairs, self.edges)}
        return StateGraph(n, b, (n - 1 - c for c in self.states), edge_labels)

    def is_strongly_connected(self) -> bool:
        return strongly_connected(self.states, (pair for pair, _ in self.edges))


class StateMultigraph(Value):
    """One labeled multi-edge per input pair: ``edges`` is a sorted multiset
    of machine transitions (c1, c2, label).  Vertices are the incident states only."""

    __slots__ = ("multiplier", "base", "edges")
    multiplier: int
    base: int
    edges: tuple[tuple[int, int, Pair], ...]

    def __post_init__(self) -> None:
        n, b = self.multiplier, self.base
        check_multiplier(n, b)
        triples = []
        for c1, c2, (d1, d2) in self.edges:
            if carry_step(n, b, d1, d2) != (c1, c2):
                raise ParameterError(f"triple ({c1},{c2},({d1},{d2})) violates the transition equation")
            triples.append((c1, c2, (d1, d2)))
        object.__setattr__(self, "edges", tuple(sorted(triples)))

    def counter(self) -> Counter:
        return Counter(self.edges)

    def states(self) -> frozenset[int]:
        incident = set()
        for c1, c2, _ in self.edges:
            incident.add(c1)
            incident.add(c2)
        return frozenset(incident)

    def out_degree(self, state: int) -> int:
        return sum(1 for c1, _, _ in self.edges if c1 == state)

    def reflect(self) -> "StateMultigraph":
        n, b = self.multiplier, self.base
        return StateMultigraph(
            n,
            b,
            (
                (n - 1 - c1, n - 1 - c2, (b - 1 - d1, b - 1 - d2))
                for c1, c2, (d1, d2) in self.edges
            ),
        )

    def is_strongly_connected(self) -> bool:
        return strongly_connected(self.states(), ((c1, c2) for c1, c2, _ in self.edges))


def build_state_graph(multiplier: int, base: int) -> StateGraph:
    """The full machine graph: every mother edge grouped under its state pair.

    All states 0..n-1 are retained even if some end up isolated.
    """
    image = edge_image(build_mother_graph(multiplier, base).edges, multiplier, base)
    return StateGraph(multiplier, base, range(multiplier), image.edges)


def build_state_multigraph(multiplier: int, base: int) -> StateMultigraph:
    """One triple per mother-graph edge."""
    return edge_multi_image(build_mother_graph(multiplier, base).edges, multiplier, base)


def edge_image(edges: Iterable[Pair], multiplier: int, base: int) -> StateGraph:
    """The labeled subgraph traced by a set of mother-graph edges.

    Each edge becomes a label on its transition's state pair; states with
    neither in- nor out-edges are dropped.
    """
    grouped: dict[Pair, list[Pair]] = {}
    incident: set[int] = set()
    for edge in edges:
        c1, c2 = transition(edge, multiplier, base)
        grouped.setdefault((c1, c2), []).append(edge)
        incident.add(c1)
        incident.add(c2)
    return StateGraph(multiplier, base, incident, grouped)


def edge_multi_image(edges: Iterable[Pair], multiplier: int, base: int) -> StateMultigraph:
    """The multigraph traced by a multiset of mother-graph edges: one
    (c1, c2, edge) triple per edge, repeats kept."""
    triples = [(*transition(edge, multiplier, base), edge) for edge in edges]
    return StateMultigraph(multiplier, base, triples)


def cycle_image(cycle: DigitCycle, multiplier: int, base: int) -> StateGraph:
    """The labeled subgraph traced by one mother-graph cycle."""
    return edge_image(cycle.edges, multiplier, base)


def union_images(parts: Sequence[StateGraph]) -> StateGraph:
    """Set-union of labeled subgraphs: states, edges, and label sets unite."""
    if not parts or len({(part.multiplier, part.base) for part in parts}) != 1:
        raise ParameterError("need graphs of one multiplier and base to union")
    n, b = parts[0].multiplier, parts[0].base
    states: set[int] = set()
    merged: dict[Pair, set[Pair]] = {}
    for part in parts:
        states |= part.states
        for edge, labels in part.edges:
            merged.setdefault(edge, set()).update(labels)
    return StateGraph(n, b, states, merged)


def walk_states(
    inputs: Sequence[Pair], multiplier: int, base: int
) -> tuple[int, ...]:
    """Drive the machine from state 0 and return the visited state sequence.

    Succeeds (the string is accepted) iff each input's forced source carry
    matches the current state and the final state is 0; the returned tuple
    holds the k+1 carries c_0 .. c_k of a k-input string.  A mismatch raises
    :class:`WalkError` carrying the index of the first inconsistent
    transition (``len(inputs)`` for a nonzero final state); inputs outside
    the mother graph raise :class:`ParameterError`.
    """
    state = 0
    states = [0]
    for idx, edge in enumerate(inputs):
        c1, c2 = transition(edge, multiplier, base)
        if c1 != state:
            raise WalkError(idx, f"input {edge} at position {idx} needs state {c1}, walk is at {state}")
        state = c2
        states.append(state)
    if state != 0:
        raise WalkError(len(inputs), f"walk ends in state {state}, not 0")
    return tuple(states)
