"""The symmetry calculus on permutiples.

Reflection (digit d to b-1-d, carry c to n-1-c) and rotation of input
strings generate new permutiples from known ones: carries equal to n-1 mark
reflective siblings, zero carries mark rotational siblings, and together
these are the dihedral siblings.  A sibling, a transition-fixing image and
an :func:`apply_symmetry` image are each the record's digits and preimage
rearranged (and reflected), built like a search result: one multiset
check and one :func:`~permutiple.digits.check_equation`, which multiplies
out their carries, with the smallest sigma derived when first read.
A class is its machine image, whose labels are its graph.  Class-level
reflection, symmetric closures, string symmetries that fix the
state-transition sequence, and coarse conjugacy complete the picture.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Iterator, Sequence

from .digits import Permutation, PermutipleRecord, build_record, smallest_bijection
from .errors import NoReflectionError, ParameterError
from .graphs import DigitGraph, graph_of_permutiple, is_cycle_union, reflect_pairs
from .machine import StateGraph, StateMultigraph
from .search import CycleMultiset, group_unions, walk_records
from .value import Value

__all__ = [
    "ClassSpec",
    "StateSequence",
    "apply_symmetry",
    "check_sym_rev",
    "class_reflection_exists",
    "class_unions",
    "coarse_conjugate",
    "dihedral_siblings",
    "enumerate_class_members",
    "fine_conjugate",
    "is_symmetric_class",
    "reflect_class",
    "reflected_class_witness",
    "reflective_siblings",
    "rotational_siblings",
    "state_sequence",
    "symmetric_closure",
    "symmetries_fixing_sequence",
]

Pair = tuple[int, int]


class StateSequence(Value):
    """The cyclic chain of state transitions traced by a closed walk."""

    __slots__ = ("transitions",)
    transitions: tuple[Pair, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "transitions", tuple(self.transitions))
        ts = self.transitions
        if not ts:
            raise ParameterError("a state sequence needs at least one transition")
        for i, (_, target) in enumerate(ts):
            source_next = ts[(i + 1) % len(ts)][0]
            if target != source_next:
                raise ParameterError(f"transitions do not chain at position {i}")

    def __len__(self) -> int:
        return len(self.transitions)


def state_sequence(record: PermutipleRecord) -> StateSequence:
    """The transition sequence of the record's accepting walk."""
    c = record.carries
    return StateSequence(tuple((c[j], c[j + 1]) for j in range(len(record))))


def _rearranged(record: PermutipleRecord, order: Sequence[int], reflect: bool) -> PermutipleRecord:
    """The record of the input string whose position i holds the record's
    input ``order[i]``, each pair (d, p) mapped to (b-1-d, b-1-p) when
    ``reflect``.  Its proof raises :class:`ParameterError` when that string
    is no permutiple; the two digit multisets stay equal."""
    b, d, p = record.base, record.digits.digits, record.preimage.digits
    digits = [d[i] for i in order]
    preimage = [p[i] for i in order]
    if reflect:
        digits = [b - 1 - x for x in digits]
        preimage = [b - 1 - x for x in preimage]
    return build_record(record.multiplier, b, digits, preimage)


def _sibling(record: PermutipleRecord, j: int, reflect: bool) -> PermutipleRecord:
    """The record's input string rotated to start at position ``j``, each
    pair reflected when ``reflect``.  A rotation at a zero carry, or a
    reflection at an n-1 carry, is again a closed walk from state 0, so
    the sibling is a permutiple."""
    return _rearranged(record, [*range(j, len(record)), *range(j)], reflect)


def _siblings(record: PermutipleRecord, reflect: bool) -> Iterator[tuple[int, PermutipleRecord]]:
    """(j, sibling) for every position 0 <= j < k whose carry marks one:
    n-1 for reflective siblings, 0 for rotational ones."""
    mark = record.multiplier - 1 if reflect else 0
    for j, carry in enumerate(record.carries[:-1]):
        if carry == mark:
            yield j, _sibling(record, j, reflect)


def reflective_siblings(record: PermutipleRecord) -> list[tuple[int, PermutipleRecord]]:
    """One sibling for every position 0 < j < k whose carry equals n-1:
    the reflected input string rotated to start at j."""
    return list(_siblings(record, reflect=True))


def rotational_siblings(record: PermutipleRecord) -> list[tuple[int, PermutipleRecord]]:
    """One sibling for every position 0 <= j < k whose carry is zero: the
    input string rotated to start at j.

    j = 0 always qualifies and reproduces the record itself.
    """
    return list(_siblings(record, reflect=False))


def dihedral_siblings(record: PermutipleRecord) -> list[PermutipleRecord]:
    """Reflective and rotational siblings together, one record per equation."""
    seen = {}
    for reflect in (False, True):
        for _, sibling in _siblings(record, reflect):
            seen.setdefault(sibling.key, sibling)
    return [seen[key] for key in sorted(seen)]


class ClassSpec(Value):
    """A permutiple class as its machine image: the labeled state subgraph
    traced by all of its graph's cycles.  Each mother-graph edge drives one
    transition, so the image's labels are the class :attr:`graph`, which
    must be a nonempty union of simple cycles."""

    __slots__ = ("images",)
    images: StateGraph

    def __post_init__(self) -> None:
        if not self.images.labels or not is_cycle_union(self.images.labels):
            raise ParameterError("class graph must be a nonempty union of simple cycles")

    @property
    def multiplier(self) -> int:
        return self.images.multiplier

    @property
    def base(self) -> int:
        return self.images.base

    @property
    def graph(self) -> DigitGraph:
        return DigitGraph(self.images.base, self.images.labels)

    @classmethod
    def from_graph(cls, multiplier: int, graph: DigitGraph) -> "ClassSpec":
        """The class of ``graph``, a nonempty union of mother-graph cycles.

        Every edge of a cycle union lies on one of its simple cycles, so the
        union of the cycle images is the image of the edge set itself.  An
        edge outside the mother graph is refused by the image, with
        :class:`ParameterError`, as a graph that is no nonempty cycle union
        is by the class.
        """
        return cls(StateGraph(multiplier, graph.base, graph.edges))

    @classmethod
    def from_record(cls, record: PermutipleRecord) -> "ClassSpec":
        """The class of a record's graph: the image of its input pairs.  A
        proved record's digit multigraph is balanced, so its graph is a
        nonempty cycle union and passes the class's check."""
        return cls(StateGraph(record.multiplier, record.base, record.string))


def class_reflection_exists(spec: ClassSpec) -> bool:
    """Whether the reflected class graph is again a permutiple class graph.

    Decided by the vertex test: state n-1 belongs to the image union
    (equivalently, state 0 belongs to the reflected image union).
    """
    return (spec.multiplier - 1) in spec.images.states


def _require_reflection(spec: ClassSpec) -> None:
    if not class_reflection_exists(spec):
        raise NoReflectionError(
            f"state {spec.multiplier - 1} is not an image vertex; the reflected graph is not a class graph"
        )


def reflect_class(spec: ClassSpec) -> ClassSpec:
    """The class of the reflected graph.  Reflection maps each transition
    (c, c') to (n-1-c, n-1-c'), so its images are the reflected images."""
    _require_reflection(spec)
    return ClassSpec(spec.images.reflect())


def symmetric_closure(spec: ClassSpec) -> ClassSpec:
    """The class over the union of the graph with its reflection: one
    image of its labels and their reflections."""
    _require_reflection(spec)
    n, b, labels = spec.multiplier, spec.base, spec.images.labels
    return ClassSpec(StateGraph(n, b, [*labels, *reflect_pairs(labels, b - 1)]))


def is_symmetric_class(spec: ClassSpec) -> bool:
    return spec.graph == spec.graph.reflect()


def reflected_class_witness(record: PermutipleRecord) -> PermutipleRecord | None:
    """A permutiple whose graph is the reflection of the record's graph.

    The record's walk visits every image vertex of its own class, so when
    state n-1 is an image vertex some carry equals n-1 and the reflective
    sibling there realizes the reflected graph.  Returns None when no carry
    qualifies.
    """
    for _, sibling in _siblings(record, reflect=True):
        return sibling
    return None


def apply_symmetry(
    record: PermutipleRecord, phi: Permutation, reflect: bool = False
) -> PermutipleRecord | None:
    """Permute the record's input pairs by ``phi``; optionally reflect them.

    Position i of the new string holds input ``phi(i)`` of the old one (so
    the new digits are d[phi(i)]).  Returns the proved record when the
    permuted string is a permutiple, None when it leaves the language.
    """
    if phi.size != len(record):
        raise ParameterError("permutation size must match the digit count")
    try:
        return _rearranged(record, phi.mapping, reflect)
    except ParameterError:
        return None


def _distinct_arrangements(items: Sequence[Pair]) -> Iterator[tuple[Pair, ...]]:
    """Distinct permutations of a multiset, in lexicographic order.

    Each follows from the last by the next-permutation step, without
    recursion: swap the rightmost ascent's left element with the smallest
    larger element to its right, then reverse the tail."""
    arrangement = sorted(items)
    while True:
        yield tuple(arrangement)
        i = len(arrangement) - 2
        while i >= 0 and arrangement[i] >= arrangement[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(arrangement) - 1
        while arrangement[j] <= arrangement[i]:
            j -= 1
        arrangement[i], arrangement[j] = arrangement[j], arrangement[i]
        arrangement[i + 1 :] = reversed(arrangement[i + 1 :])


def _fixing_images(record: PermutipleRecord) -> list[tuple[Permutation, PermutipleRecord]]:
    """(phi, image) for every transition-fixing symmetry of the record,
    sorted by phi's mapping: see :func:`symmetries_fixing_sequence`.

    Positions are grouped by the transition their input takes.  Each group
    lists once each distinct arrangement of its inputs other than its own,
    as the moves (position, source position) of :func:`smallest_bijection`
    on the positions it changes; a symmetry picks one arrangement or none
    in every group with more than one, and not none in all of them."""
    s, c = record.string, record.carries
    groups: dict[Pair, list[int]] = {}
    for i, transition in enumerate(zip(c, c[1:])):  # input i takes (c_i, c_{i+1})
        groups.setdefault(transition, []).append(i)
    choices = []
    for g in groups.values():
        inputs = [s[i] for i in g]
        moves: list[tuple[Pair, ...]] = [()]  # the group left as it is
        for arranged in _distinct_arrangements(inputs):
            moved = [x for x, value in enumerate(arranged) if value != inputs[x]]
            if not moved:
                continue  # the group's own arrangement
            old, new = [inputs[x] for x in moved], [arranged[x] for x in moved]
            matched: list[int] = smallest_bijection(old, new)  # type: ignore[assignment]
            moves.append(tuple((g[x], g[moved[m]]) for x, m in zip(moved, matched)))
        if len(moves) > 1:
            choices.append(moves)

    out = []
    for assignment in islice(product(*choices), 1, None):  # the first moves nothing
        mapping = list(range(len(s)))
        for chosen in assignment:
            for pos, source in chosen:
                mapping[pos] = source
        # each pair fixes its transition, so the rearranged string is again a permutiple
        out.append((Permutation(tuple(mapping)), _rearranged(record, mapping, False)))
    out.sort(key=lambda pair: pair[0].mapping)
    return out


def symmetries_fixing_sequence(record: PermutipleRecord) -> list[Permutation]:
    """Nontrivial input permutations that keep every state transition fixed.

    Positions sharing a transition may trade inputs; each rearrangement of
    the string that differs from the original is validated as a permutiple
    string and reported once, by the permutation that fixes the most
    positions (ties broken by smallest mapping): the identity where the
    input is unchanged, :func:`smallest_bijection` on the moved positions.
    An input pair determines its transition, so equal inputs lie in one
    group and that bijection never moves an input to another group: it is
    the union of each group's own bijection on its moved positions, which
    is how the rearrangements are enumerated, one group at a time.  The
    list is sorted by mapping.
    """
    return [phi for phi, _ in _fixing_images(record)]


def _require_same_digits(first: PermutipleRecord, second: PermutipleRecord) -> None:
    if (first.multiplier, first.base) != (second.multiplier, second.base):
        raise ParameterError("records must share multiplier and base")
    if first.digits.multiset() != second.digits.multiset():
        raise ParameterError("records must share their digit multiset")


def coarse_conjugate(first: PermutipleRecord, second: PermutipleRecord) -> bool:
    """Equality of permutiple graphs, the digit-level conjugacy relation.

    Both records must share multiplier, base, and digit multiset.
    """
    _require_same_digits(first, second)
    return graph_of_permutiple(first) == graph_of_permutiple(second)


def fine_conjugate(first: PermutipleRecord, second: PermutipleRecord) -> bool:
    """Conjugacy of the underlying permutations, for distinct digits only.

    With repeated digits the relation depends on which repeated digit a
    permutation moves, so this predicate refuses them; on distinct digits it
    coincides with :func:`coarse_conjugate`.
    """
    _require_same_digits(first, second)
    if len(set(first.digits.digits)) != len(first):
        raise ParameterError("fine conjugacy is only defined here for all-distinct digits")
    # pi maps positions of `second` to positions of `first` holding the same digit
    lookup = {d: i for i, d in enumerate(first.digits.digits)}
    pi = Permutation(tuple(lookup[d] for d in second.digits.digits))
    conjugated = pi.compose(second.sigma).compose(pi.inverse())
    return conjugated == first.sigma


def class_unions(
    record: PermutipleRecord,
) -> list[tuple[CycleMultiset, StateMultigraph]]:
    """Feasible cycle multisets of the record's class graph whose left
    components reproduce the record's digit multiset: the class members'
    strings grouped by edge multiset."""
    members = enumerate_class_members(record)
    return group_unions((m.string for m in members), record.multiplier, record.base)


def enumerate_class_members(
    record: PermutipleRecord, allow_leading_zero: bool = True
) -> list[PermutipleRecord]:
    """All permutiples sharing the record's digit multiset whose graph is a
    subgraph of the record's class graph.

    The records of :func:`walk_records` over the class graph's edges, the
    record's (d, p) pairs, with the digit multiset pinned to the record's,
    sorted by display digits; zero-led ones only if ``allow_leading_zero``.
    """
    n, b, digits = record.multiplier, record.base, record.digits.digits
    return list(walk_records(n, b, len(digits), record.string, digits, allow_leading_zero))


def check_sym_rev(record: PermutipleRecord, j: int) -> bool:
    """Cross-check the sorted-digit representation of a reflective sibling.

    Requires carry j equal to n-1 and a reflection-closed digit multiset.
    With digits sorted ascending as a reference list, reflecting equals
    reversing, so the sibling must also be the reversal-composed reindexing
    of the reference list; both representations are compared numerically.
    """
    n, b = record.multiplier, record.base
    size = len(record)
    if not 0 < j < size:
        raise ParameterError(f"index {j} out of range 1..{size - 1}")
    if record.carries[j] != n - 1:
        raise ParameterError(f"carry at position {j} must equal {n - 1}")
    reference = sorted(record.digits.digits)
    reflected = sorted(b - 1 - d for d in reference)
    if reference != reflected:
        raise ParameterError("digit multiset is not reflection-closed")

    # pi: position -> reference index, smallest assignment
    pi = Permutation(tuple(smallest_bijection(reference, record.digits.digits)))

    sibling = _sibling(record, j, reflect=True)
    rho = Permutation.reversal(size)
    shift = Permutation.rotation(size, j)
    lhs_digits = rho.compose(pi).compose(shift)
    lhs_preimage = rho.compose(pi).compose(record.sigma).compose(shift)
    digits_match = all(
        sibling.digits.digits[i] == reference[lhs_digits(i)] for i in range(size)
    )
    preimage_match = all(
        sibling.preimage.digits[i] == reference[lhs_preimage(i)] for i in range(size)
    )
    return digits_match and preimage_match
