"""The Hoey-Sloane carry machine for single-digit multiplication.

States are the carries 0..n-1, and a mother-graph edge (d1, d2) drives the
one transition c1 -> c2 with ``b*c2 + d1 = n*d2 + c1``, as
:func:`permutiple.digits.carry_step` solves it.  So a machine image is its
labels: a set of mother-graph edges makes a :class:`StateGraph`, whose
edges carry label sets, and a multiset of them a :class:`StateMultigraph`,
with one labeled multi-edge per input.  Each computes its transitions once
when it is built and refuses a label that is no mother-graph edge; every
image builder passes labels.
"""

from __future__ import annotations

from collections import Counter
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
    "transition",
    "union_images",
    "walk_states",
]

Pair = tuple[int, int]
_set = object.__setattr__


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


def _drives(labels: Iterable[Pair], multiplier: int, base: int) -> dict[Pair, Pair]:
    """The state pair each distinct label drives; :func:`transition`'s
    :class:`ParameterError` for a label that is no mother-graph edge."""
    n, b = multiplier, base
    check_multiplier(n, b)
    # carry_step is None only where transition raises
    return {label: carry_step(n, b, *label) or transition(label, n, b) for label in set(labels)}


class _StateEdges:
    """The slots in which a :class:`StateGraph` keeps what its labels
    determine, outside its fields."""

    __slots__ = ("states", "edges")
    states: frozenset[int]
    edges: tuple[tuple[Pair, tuple[Pair, ...]], ...]


class StateGraph(Value, _StateEdges):
    """Edge-labeled state graph: the transitions driven by a set of
    mother-graph edges, its ``labels``.

    ``edges`` holds the labels grouped by the state pair (c1, c2) they
    drive, as a tuple of items sorted by state pair with each label set
    sorted, and ``states`` the ends of those edges.  Both are computed when
    the graph is built, so equality of labels is the graph equality used
    by the symmetry results.
    """

    __slots__ = ("multiplier", "base", "labels")
    multiplier: int
    base: int
    labels: frozenset[Pair]

    def __post_init__(self) -> None:
        labels = frozenset(self.labels)
        grouped: dict[Pair, list[Pair]] = {}
        for label, pair in sorted(_drives(labels, self.multiplier, self.base).items()):
            grouped.setdefault(pair, []).append(label)
        _set(self, "labels", labels)
        _set(self, "edges", tuple(sorted((pair, tuple(ls)) for pair, ls in grouped.items())))
        _set(self, "states", frozenset(c for pair in grouped for c in pair))

    def label_map(self) -> dict[Pair, tuple[Pair, ...]]:
        return dict(self.edges)

    def reflect(self) -> "StateGraph":
        """States map to n-1-c, labels to (b-1-d1, b-1-d2); an involution."""
        return StateGraph(self.multiplier, self.base, reflect_pairs(self.labels, self.base - 1))

    def is_strongly_connected(self) -> bool:
        return strongly_connected(self.states, (pair for pair, _ in self.edges))


class _MultiEdges:
    """The slots in which a :class:`StateMultigraph` keeps what its labels
    determine, outside its fields."""

    __slots__ = ("states", "edges")
    states: frozenset[int]
    edges: tuple[tuple[int, int, Pair], ...]


class StateMultigraph(Value, _MultiEdges):
    """One labeled multi-edge per input pair: the transitions driven by a
    multiset of mother-graph edges, its ``labels``, kept sorted.

    ``edges`` holds the sorted multiset of (c1, c2, label) triples and
    ``states`` the ends of those edges, the incident states only; both are
    computed when the multigraph is built, as a :class:`StateGraph`'s are.
    """

    __slots__ = ("multiplier", "base", "labels")
    multiplier: int
    base: int
    labels: tuple[Pair, ...]

    def __post_init__(self) -> None:
        labels = tuple(sorted(self.labels))
        drives = _drives(labels, self.multiplier, self.base)
        _set(self, "labels", labels)
        _set(self, "edges", tuple(sorted((*drives[label], label) for label in labels)))
        _set(self, "states", frozenset(c for pair in drives.values() for c in pair))

    def counter(self) -> Counter:
        return Counter(self.edges)

    def out_degree(self, state: int) -> int:
        return sum(1 for c1, _, _ in self.edges if c1 == state)

    def reflect(self) -> "StateMultigraph":
        n, b = self.multiplier, self.base
        return StateMultigraph(n, b, reflect_pairs(self.labels, b - 1))

    def is_strongly_connected(self) -> bool:
        return strongly_connected(self.states, ((c1, c2) for c1, c2, _ in self.edges))


def build_state_graph(multiplier: int, base: int) -> StateGraph:
    """The full machine graph: every mother edge grouped under its state
    pair.  It holds every state 0..n-1, as the label (c, 0) drives c -> 0."""
    return StateGraph(multiplier, base, build_mother_graph(multiplier, base).edges)


def build_state_multigraph(multiplier: int, base: int) -> StateMultigraph:
    """One triple per mother-graph edge."""
    return StateMultigraph(multiplier, base, build_mother_graph(multiplier, base).edges)


def cycle_image(cycle: DigitCycle, multiplier: int, base: int) -> StateGraph:
    """The labeled subgraph traced by one mother-graph cycle."""
    return StateGraph(multiplier, base, cycle.edges)


def union_images(parts: Sequence[StateGraph]) -> StateGraph:
    """Set-union of labeled subgraphs: their labels unite."""
    if not parts or len({(part.multiplier, part.base) for part in parts}) != 1:
        raise ParameterError("need graphs of one multiplier and base to union")
    labels = frozenset().union(*(part.labels for part in parts))
    return StateGraph(parts[0].multiplier, parts[0].base, labels)


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
