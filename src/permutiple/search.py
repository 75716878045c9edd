"""Permutiple discovery.

A permutiple string is an input string the carry machine accepts (a walk
from carry 0 back to carry 0) whose left and right digit components form
the same multiset.  ``find`` and ``class`` both search with one kernel,
:func:`walk_records`, the machine run as long division from the top digit,
which yields each permutiple as a proved record in output order.  It meets
in the middle: each walk is a top half of k - h digits joined to a tail
run of the bottom h, both read from the walk's plan (:class:`_Plan`, built
by :func:`_plan`), which sizes both from one path count before it builds
either.  The plan's ``rows`` hold the transitions a position may take, one
row per carry; ``tails`` tables every run of ``h`` digits down to carry 0
(:func:`_tails`); ``tops`` lists every top half a run completes, in output
order, the ``zero_led`` ones that lead with digit 0 first (:func:`_tops`),
or is None where each call streams them.  A record's tuples are a run's
and a top's joined by concatenation.  The rows are proved when the tails
are built and again on every call, the tails are checked against the
count, and the join is proved by the carry the halves meet at and by their
digit-count signatures.

Two caches keep work that repeats, both least recently used first and
bounded by what they hold rather than by their entries.  A walk's plan
depends only on n, b, k, the distinct (d, p) pairs, the pinned digit
multiset and the tail budget ``_TAIL_RUNS``, so every record of one class
shares it; plans are kept up to ``_TAIL_RUNS`` in all, counted by their
``size``.  :func:`find_permutiples` keeps whole searches, keyed by n, b,
k and whether zero-led ones are allowed, up to ``_CACHE_RECORDS``
results in all.  Each has ``cache_info()`` and ``cache_clear()``, as
:func:`functools.lru_cache` gives.

The paper's cycle theory stays as checked mathematics: every such string
orders a cycle multiset whose multigraph union passes
:func:`check_feasible`, :func:`eulerian_strings` lists the orderings of a
union and :func:`count_eulerian_circuits` counts them by the BEST
theorem.  An independent integer-scan oracle cross-checks the whole
pipeline.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from math import factorial, gcd
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .digits import (
    DigitString,
    PermutipleRecord,
    _assemble,
    build_record,
    carry_step,
    check_length,
    check_multiplier,
)
from .errors import (
    InfeasibleUnionError,
    InvariantError,
    MultisetMismatchError,
    ParameterError,
    ScanLimitError,
)
from .value import Value

if TYPE_CHECKING:
    from .graphs import DigitCycle
    from .machine import StateMultigraph

__all__ = [
    "CycleMultiset",
    "DEFAULT_SCAN_LIMIT",
    "SearchResult",
    "brute_force_oracle",
    "check_feasible",
    "count_eulerian_circuits",
    "decompose_into_cycles",
    "duplicate_label_factor",
    "eulerian_strings",
    "feasible_unions",
    "find_permutiples",
    "group_unions",
    "string_to_permutiple",
    "walk_records",
]

Pair = tuple[int, int]
InputString = tuple[Pair, ...]

DEFAULT_SCAN_LIMIT = 10**8
_SIGNATURE_TABLE_BYTES = 2**27  # 128 MiB
_TAIL_RUNS = 2**14  # runs in the walk's tail table, over all carries
_CACHE_RECORDS = 2**12  # results kept by find_permutiples' cache, over all entries
_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


class CycleMultiset(Value):
    """A multiset of simple cycles: the support plus a positive count each.

    ``cycles`` is sorted by vertex tuple and duplicate-free, so equal
    multisets compare equal structurally.
    """

    __slots__ = ("cycles", "multiplicities")
    cycles: tuple[DigitCycle, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cycles", tuple(self.cycles))
        object.__setattr__(self, "multiplicities", tuple(self.multiplicities))
        if len(self.cycles) != len(self.multiplicities):
            raise ParameterError("cycles and multiplicities must align")
        if any(m < 1 for m in self.multiplicities):
            raise ParameterError("multiplicities must be positive")
        keys = [c.vertices for c in self.cycles]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ParameterError("support must be sorted and duplicate-free")

    @classmethod
    def from_counts(cls, counts: Counter) -> "CycleMultiset":
        support = sorted((c for c, m in counts.items() if m), key=lambda c: c.vertices)
        return cls(tuple(support), tuple(counts[c] for c in support))

    def edge_counter(self) -> Counter:
        counts: Counter = Counter()
        for cycle, mult in zip(self.cycles, self.multiplicities):
            for edge in cycle.edges:
                counts[edge] += mult
        return counts

    def multigraph(self, multiplier: int, base: int) -> StateMultigraph:
        """The multiset union of the multi-images of the member cycles."""
        from .machine import StateMultigraph

        return StateMultigraph(multiplier, base, self.edge_counter().elements())


class SearchResult(Value):
    """A found permutiple, read with its input string."""

    __slots__ = ("record",)
    record: PermutipleRecord

    @property
    def string(self) -> InputString:
        return self.record.string


def check_feasible(delta: StateMultigraph) -> bool:
    """Whether a multigraph union can be ordered into a permutiple string.

    Requires the zero state with positive degree, strong connectivity on the
    incident states, and in-degree equal to out-degree everywhere.
    """
    states = delta.states
    if 0 not in states:
        return False
    ins: Counter = Counter()
    outs: Counter = Counter()
    for c1, c2, _ in delta.edges:
        outs[c1] += 1
        ins[c2] += 1
    if any(ins[c] != outs[c] for c in states):
        return False
    return delta.is_strongly_connected()


def eulerian_strings(delta: StateMultigraph) -> list[InputString]:
    """All distinct label sequences of Eulerian circuits anchored at state 0.

    Backtracking over the remaining edge multiset, with an explicit stack;
    identical parallel edges are merged in a counter, so each distinct label
    sequence comes out exactly once.  The result is sorted lexicographically.
    """
    if not check_feasible(delta):
        raise InfeasibleUnionError("multigraph union admits no zero-anchored Eulerian circuit")
    remaining = Counter(delta.edges)
    total = sum(remaining.values())
    by_source: dict[int, list[tuple[int, int, Pair]]] = {}
    for triple in sorted(remaining):
        by_source.setdefault(triple[0], []).append(triple)

    out: list[InputString] = []
    path: list[tuple[int, int, Pair]] = []
    stack = [iter(by_source.get(0, ()))]  # untried edges out of each state on the path
    while stack:
        for triple in stack[-1]:
            if remaining[triple] == 0:
                continue
            remaining[triple] -= 1
            path.append(triple)
            if len(path) == total and triple[1] == 0:
                out.append(tuple(t[2] for t in path))
            stack.append(iter(by_source.get(triple[1], ())))
            break
        else:
            stack.pop()
            if path:
                remaining[path.pop()] += 1
    out.sort()
    return out


def duplicate_label_factor(delta: StateMultigraph) -> int:
    """Product of factorials of identical-triple multiplicities.

    Swapping identical parallel edges permutes an Eulerian circuit's edge
    sequence without changing its label sequence, so this factor converts
    between raw circuit counts and distinct label-sequence counts.
    """
    factor = 1
    for mult in Counter(delta.edges).values():
        factor *= factorial(mult)
    return factor


def _integer_determinant(matrix: list[list[int]]) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    a = [row[:] for row in matrix]
    size = len(a)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for i in range(k + 1, size):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def count_eulerian_circuits(delta: StateMultigraph) -> int:
    """Eulerian circuits through a fixed outgoing edge of state 0.

    Arborescence count times the product of (out-degree - 1)! over the
    incident states; the arborescences toward state 0 come from a principal
    minor of the out-degree Laplacian (loops cancel).  Multiplying by the
    out-degree of state 0 gives the number of circuits as edge sequences
    from state 0; dividing that by :func:`duplicate_label_factor` gives the
    distinct label-sequence count of :func:`eulerian_strings`.
    """
    if not check_feasible(delta):
        raise InfeasibleUnionError("multigraph union admits no zero-anchored Eulerian circuit")
    states = sorted(delta.states)
    index = {c: i for i, c in enumerate(states)}
    size = len(states)
    adjacency = [[0] * size for _ in range(size)]
    out_deg = [0] * size
    for c1, c2, _ in delta.edges:
        adjacency[index[c1]][index[c2]] += 1
        out_deg[index[c1]] += 1
    laplacian = [
        [(out_deg[i] if i == j else 0) - adjacency[i][j] for j in range(size)]
        for i in range(size)
    ]
    root = index[0]
    minor = [
        [laplacian[i][j] for j in range(size) if j != root]
        for i in range(size)
        if i != root
    ]
    arborescences = _integer_determinant(minor)
    count = arborescences
    for degree in out_deg:
        count *= factorial(degree - 1)
    return count


def decompose_into_cycles(edges: Iterable[Pair], base: int) -> CycleMultiset:
    """Split a balanced edge multiset into simple cycles.

    Repeatedly walks from the smallest vertex along smallest available
    successors until a vertex repeats, peels off the simple cycle found, and
    restarts.  Balanced in/out degrees guarantee the walk never sticks
    before a repeat, so the decomposition is total and deterministic.
    """
    from .graphs import DigitCycle

    remaining: Counter = Counter(edges)
    ins: Counter = Counter()
    outs: Counter = Counter()
    for d1, d2 in remaining.elements():
        outs[d1] += 1
        ins[d2] += 1
    if ins != outs:
        raise ParameterError("edge multiset is not balanced; no cycle decomposition exists")

    found: Counter = Counter()
    while remaining:
        start = min(d1 for d1, _ in remaining)
        path = [start]
        position = {start: 0}
        while True:
            u = path[-1]
            w = min(d2 for d1, d2 in remaining if d1 == u)
            if w in position:
                cycle = DigitCycle(base, tuple(path[position[w]:]))
                for edge in cycle.edges:
                    remaining[edge] -= 1
                    if remaining[edge] == 0:
                        del remaining[edge]
                found[cycle] += 1
                break
            position[w] = len(path)
            path.append(w)

    return CycleMultiset.from_counts(found)


def string_to_permutiple(inputs: Sequence[Pair], multiplier: int, base: int) -> SearchResult:
    """Read an input string through the machine into a verified permutiple.

    The left components are the digits and the right ones the preimage,
    put together by the kernel's builder.  Raises :class:`WalkError` when
    the machine rejects the string and :class:`MultisetMismatchError` when
    the two component multisets differ.
    """
    from .machine import walk_states

    inputs = tuple(inputs)
    walk_states(inputs, multiplier, base)
    digits = [d for d, _ in inputs]
    preimage = [p for _, p in inputs]
    return SearchResult(build_record(multiplier, base, digits, preimage))


_MISSING = object()


def _bounded_cache(bound: Callable[[], int], size: Callable[[Any], int]):
    """Cache a function as :func:`functools.lru_cache` does, least recently
    used first, but bounded by what the entries hold rather than by how many
    there are: ``size`` of every value kept, each counted as at least 1,
    sums to at most ``bound()``, read on every call.  A value larger than
    the whole bound is returned but not kept.  ``cache_info`` reports
    ``maxsize`` in the units of ``size``."""

    def decorate(compute):
        entries: dict[tuple, Any] = {}  # the most recently used last
        counts = [0, 0, 0]  # hits, misses, size held

        def cached(*key):
            value = entries.pop(key, _MISSING)
            if value is not _MISSING:
                counts[0] += 1
            else:
                counts[1] += 1
                value = compute(*key)
                held = max(1, size(value))
                if held > bound():
                    return value
                counts[2] += held
            entries[key] = value
            while counts[2] > bound():
                counts[2] -= max(1, size(entries.pop(next(iter(entries)))))
            return value

        def cache_clear() -> None:
            entries.clear()
            counts[:] = [0, 0, 0]

        cached.cache_info = lambda: _CacheInfo(counts[0], counts[1], bound(), len(entries))
        cached.cache_clear = cache_clear
        cached.entries = entries
        return cached

    return decorate


def _prove_rows(options: Sequence[Sequence[tuple[int, int, int, int]]], n: int, b: int) -> None:
    """Prove every option (d, p, c, step) of row ``carry`` by
    :func:`check_equation`'s step: both digits in 0..b-1, c a carry in
    0..n-1, and ``divmod(n*p + c, b) == (carry, d)``.  Raises
    :class:`InvariantError` naming the row of the first that fails."""
    for carry, row in enumerate(options):
        for d, p, c, _ in row:
            if not (0 <= d < b and 0 <= p < b):
                raise InvariantError(f"digit out of range for base {b} in row {carry}")
            if not 0 <= c < n:
                raise InvariantError(f"carry {c} out of range for multiplier {n} in row {carry}")
            if divmod(n * p + c, b) != (carry, d):
                raise InvariantError(
                    f"carry recurrence violated in row {carry}: "
                    f"{n} * {p} + {c} is not {b} * {carry} + {d}"
                )


def _tails(
    options: Sequence[Sequence[tuple[int, int, int, int]]],
    n: int,
    b: int,
    weights: Sequence[int],
    h: int,
) -> dict[int, tuple]:
    """The bottom ``h`` digits of every walk, in one table keyed by
    ``code * n + c``, built from option rows proved first.

    ``table[code * n + c]`` holds the count signature and the tuple of
    every run of h digits that goes from carry c down to carry 0 and whose
    packed steps sum to ``code``; as 0 <= c < n, ``divmod`` of the key by n
    reads back the code, negative ones included, and c.  A run is three
    tuples, least-significant first: its digits d_0..d_{h-1}, its preimage
    digits p_0..p_{h-1} and its carries c_0..c_h (c_0 = 0, c_h = c), so
    that a walk's top digits, preimage and carries join it by
    concatenation.  Each tuple is in display order (options ascending at
    every level).  Levels are built bottom-up from the empty run at carry
    0, each run extended by one digit on top.  Every option (d, p, c) of
    row ``carry`` is proved by :func:`_prove_rows` before any run is built,
    and so is every position of every run.  The signature is the sum of
    ``weights[d] - weights[p]`` over a run's positions, the weights
    ``(k+1)**d`` of a k-digit walk (:func:`_count_signatures`); a packed
    code fixes every digit's balance, so the runs of one code share it, and
    a run that would join a code of another signature is a defect.  Either
    failure raises :class:`InvariantError`.
    """
    _prove_rows(options, n, b)
    tables: list[dict[int, list]] = [{} for _ in range(n)]
    tables[0][0] = [0, [((), (), (0,))]]
    for _ in range(h):
        grown: list[dict[int, list]] = [{} for _ in range(n)]
        for carry, (row, table) in enumerate(zip(options, grown)):
            for d, p, c, step in row:
                shift = weights[d] - weights[p]
                td, tp, tc = (d,), (p,), (carry,)
                for code, (signature, runs) in tables[c].items():
                    grown_runs = [(ds + td, ps + tp, cs + tc) for ds, ps, cs in runs]
                    bucket = table.get(code + step)
                    if bucket is None:
                        table[code + step] = [signature + shift, grown_runs]
                    elif bucket[0] == signature + shift:
                        bucket[1] += grown_runs
                    else:
                        raise InvariantError(
                            f"tail runs of packed code {code + step} from carry {carry} "
                            "differ in their digit counts"
                        )
        tables = grown
    return {
        code * n + c: (signature, tuple(runs))
        for c, table in enumerate(tables)
        for code, (signature, runs) in table.items()
    }


class _Plan(NamedTuple):
    """What a division walk needs before its first step (:func:`_plan`)."""

    rows: tuple[tuple[tuple[int, int, int, int], ...], ...]  # row c: (d, p, c', packed step)
    final: int  # the packed code of a balanced walk that uses each pinned digit as pinned
    template: tuple[int, ...]  # the uses each digit may take: its pinned count, or k
    h: int  # the tail height
    weights: list[int]  # the count-signature weight of each digit
    tails: dict[int, tuple]  # the runs of h digits down to carry 0 (:func:`_tails`)
    tops: tuple | None  # the top halves the runs complete (:func:`_tops`); None: streamed
    zero_led: int  # how many listed tops lead with digit 0; they come first
    size: int  # what the plan holds, in tail runs, for the plan cache's bound


def _tops(plan: _Plan, k: int, roots: Iterable[tuple[int, int, int, int]]) -> Iterator[tuple]:
    """The top k - h digits of every walk over the plan's rows from
    ``roots`` (the options of row 0 its top digit may take) that a run of
    its tails completes, in display order: options ascending at every
    level.

    Each is yielded as the key of its tail bucket, the carry c its lowest
    position starts from, its digits, preimage digits and the carries
    above c, least-significant first (the carry c_k = 0 last), and the
    count signature of its digits.  A walk's state is its carry, its depth
    and one packed code of every digit's balance (and, pinned, its uses);
    a pinned digit already used as often as the template pins it is
    skipped, and a state is memoised once dead, when no top below it meets
    a bucket.  The stack is explicit.  Nothing is proved here: the rows
    are proved before this is called, and the join proves each top against
    its runs (:func:`walk_records`).
    """
    options, final, h, weights, tails = plan.rows, plan.final, plan.h, plan.weights, plan.tails
    n = len(options)
    left = list(plan.template)
    dead: set[int] = set()
    # frame: untried options, packed code, whether anything below was
    # accepted, memo key, the digits, preimage digits and carries above it,
    # and the count signature of those digits
    stack: list[list] = [[iter(roots), 0, False, 0, (), (), (0,), 0]]
    while stack:
        frame = stack[-1]
        code, above, carries = frame[1], frame[4], frame[6]
        steps = k - len(above)
        for d, p, c, step in frame[0]:
            if not left[d]:
                continue  # a pinned digit is used up
            if steps - 1 == h:  # the rest is a tail: look it up
                key = (final - code - step) * n + c
                if key in tails:
                    frame[2] = True
                    signature = frame[7] + weights[d] - weights[p]
                    yield key, c, (d,) + above, (p,) + frame[5], carries, signature
                continue
            key = ((code + step) * k + steps - 1) * n + c
            if key in dead:
                continue
            left[d] -= 1
            stack.append([
                iter(options[c]), code + step, False, key, (d,) + above, (p,) + frame[5],
                (c,) + carries, frame[7] + weights[d] - weights[p],
            ])
            break
        else:
            stack.pop()
            if stack:
                left[above[0]] += 1
                if frame[2]:
                    stack[-1][2] = True
                else:
                    dead.add(frame[3])


@_bounded_cache(lambda: _TAIL_RUNS, attrgetter("size"))
def _plan(
    n: int,
    b: int,
    k: int,
    pairs: tuple[Pair, ...] | None,
    pinned: tuple[int, ...] | None,
    budget: int,
) -> _Plan:
    """The plan of a division walk over ``pairs`` (None: every pair) with
    the digits ``pinned`` (None: any), and a tail table of at most
    ``budget`` runs.  It depends only on its arguments, so
    :func:`walk_records` keeps the last few, up to ``budget``
    (``_TAIL_RUNS``) in all, and a run's proof is kept with its plan.

    Both halves are sized from one path count before either is built: a
    step over the rows sets ``ways[carry]`` to the sum of ``ways[c]`` over
    the options (d, p, c, .) of row ``carry``, balance and pins unread.
    From carry 0 it counts runs: h is the last height up to k // 2 whose
    runs fit ``budget``, or 0, and a tail table holding any other number
    raises :class:`InvariantError`.  From every carry, k - h steps count at
    carry 0 the paths of the top halves, each live top one of them, and the
    tops are listed from every root when those fit in what ``budget``
    leaves after the runs.  ``size`` counts the tail runs and listed tops,
    or the rows and their options where those are more (a large base with a
    short length), so that one full table always fits the bound and no plan
    counts for less than it holds.  When a pinned digit lies on none of the
    pairs no walk exists, and the plan is empty."""
    if pairs is None:  # the mother graph: every pair, its non-edges dropped below
        pairs = tuple((d, p) for d in range(b) for p in range(b))
    digits = sorted({x for edge in pairs for x in edge if 0 <= x < b})
    index = {d: i for i, d in enumerate(digits)}

    # Balance entries lie in -k..k and use counts in 0..k, so powers of 2k+1
    # pack the balance (and, when pinned, the uses above it) into one int
    # that each digit shifts by a fixed step; the memo keys on it with the
    # depth and carry, and a whole walk's code equals ``final`` exactly when
    # it is balanced (and, pinned, uses each digit as often as pinned).
    width = 2 * k + 1
    if pinned is None:
        left = [k] * b
        final = 0
    else:
        left = [0] * b
        for d in pinned:
            if 0 <= d < b:
                left[d] += 1
        if sum(left[d] for d in digits) != k:
            return _Plan((), 0, (), 0, [], {}, (), 0, 0)
        final = sum(left[d] * width ** (len(digits) + x) for x, d in enumerate(digits))
    # Each mother-graph edge (d, p) is one transition carry -> c, with
    # b*carry + d = n*p + c (carry_step); any other pair has none and is
    # dropped.  Sorted pairs fill each row by ascending d.
    options: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    for d, p in pairs:
        carries = carry_step(n, b, d, p)
        if carries is not None:
            c, carry = carries
            step = width ** (len(digits) + index[d]) if pinned is not None else 0
            options[carry].append((d, p, c, width ** index[d] - width ** index[p] + step))
    rows = tuple(map(tuple, options))

    def down(ways: list[int]) -> list[int]:
        return [sum(ways[option[2]] for option in row) for row in rows]

    h, tail = 0, [1] + [0] * (n - 1)  # the runs of h digits down to carry 0
    while h < k // 2 and sum(grown := down(tail)) <= budget:
        h, tail = h + 1, grown
    paths = [1] * n  # the paths of k - h steps down from each carry
    for _ in range(k - h):
        paths = down(paths)
    weights = _count_signatures(b, 1, k)
    tails = _tails(options, n, b, weights, h)
    runs, held = sum(tail), sum(len(bucket[1]) for bucket in tails.values())
    if held != runs:
        raise InvariantError(
            f"tail table holds {held} runs of {h} digits, not the {runs} paths counted"
        )
    size = max(runs, n + sum(map(len, rows)))
    plan = _Plan(rows, final, tuple(left), h, weights, tails, None, 0, size)
    if paths[0] > budget - runs:
        return plan
    tops = tuple(_tops(plan, k, rows[0]))
    zero_led = next((i for i, top in enumerate(tops) if top[2][-1]), len(tops))
    return plan._replace(tops=tops, zero_led=zero_led, size=max(runs + len(tops), size))


def walk_records(
    multiplier: int,
    base: int,
    length: int,
    edges: Iterable[Pair] | None = None,
    left_digits: Sequence[int] | None = None,
    allow_leading_zero: bool = True,
) -> Iterator[PermutipleRecord]:
    """Every permutiple with ``length`` digits as a record, each proved
    before it is assembled, sorted by display digits.

    The carry machine run from the top digit is long division: from carry
    c_{j+1}, digit d_j gives (p_j, c_j) = divmod(base*c_{j+1} + d_j, n),
    the one transition b*c_{j+1} + d_j = n*p_j + c_j of
    :func:`permutiple.digits.carry_step`.  From c_k = 0, digits tried in
    ascending order, the walk accepts when c_0 = 0 with every digit
    balanced (as many uses in the digits as in the preimage p).
    The options come from the (d, p) pairs, ``edges`` or else every pair
    of digits: each mother-graph edge is exactly one such transition, so a
    class walk's rows cost as many steps as its class graph has edges, and
    a pair outside the mother graph is dropped.  ``left_digits`` pins the
    digit multiset.

    The walk reads its :func:`_plan`, cached by n, b, k, the distinct
    pairs, the pinned multiset and ``_TAIL_RUNS``.  It proves the plan's
    ``rows`` by :func:`check_equation`'s step (:func:`_prove_rows`) before
    it reads a top, then joins each top to the ``tails`` bucket its key
    names, assembling a record of the run's tuples concatenated with the
    top's, as :func:`build_record` would, with no second proof and sigma
    unset.  The join checks that the two count signatures sum to 0, so the
    digits rearrange the preimage, and that the run ends at the carry the
    top's lowest position starts from; any failure raises
    :class:`InvariantError`.  A zero-led walk is a shorter walk with a 0
    on top, and the zero root (0, 0, 0, step) is the first option of row
    0, so unless ``allow_leading_zero`` the walk starts after it: past the
    ``zero_led`` listed tops, or, where the plan lists none, from the rest
    of row 0, its tops streamed afresh on every call.
    """
    n, b, k = multiplier, base, length
    check_multiplier(n, b)
    check_length(k)
    if left_digits is not None and len(left_digits) != k:
        raise ParameterError(f"{len(left_digits)} pinned digits for length {k}")
    pairs = None if edges is None else tuple(sorted(set(edges)))
    pinned = None if left_digits is None else tuple(sorted(left_digits))
    plan = _plan(n, b, k, pairs, pinned, _TAIL_RUNS)
    _prove_rows(plan.rows, n, b)
    if plan.tops is None:
        roots = plan.rows[0]
        if not allow_leading_zero and roots and not roots[0][0]:
            roots = roots[1:]
        tops = _tops(plan, k, roots)
    else:
        tops = plan.tops if allow_leading_zero else plan.tops[plan.zero_led:]
    h, tails = plan.h, plan.tails
    for key, c, hd, hp, carries, signature in tops:
        bucket = tails[key]
        if signature + bucket[0]:
            raise InvariantError(
                f"digit and preimage multisets differ: a tail run of {h} digits "
                f"does not balance the {k - h} above it"
            )
        for rd, rp, rc in bucket[1]:  # least-significant first
            if rc[-1] != c:
                raise InvariantError(
                    f"carries do not meet at position {h}: a tail run ends at "
                    f"carry {rc[-1]}, the digits above it start from carry {c}"
                )
            yield _assemble(n, b, rd + hd, rp + hp, rc + carries)


def group_unions(
    strings: Iterable[InputString], multiplier: int, base: int
) -> list[tuple[CycleMultiset, StateMultigraph]]:
    """The distinct edge multisets of ``strings``, sorted, each as a cycle
    decomposition together with its multigraph union."""
    out = []
    for key in sorted({tuple(sorted(s)) for s in strings}):
        multiset = decompose_into_cycles(key, base)
        out.append((multiset, multiset.multigraph(multiplier, base)))
    return out


def feasible_unions(
    multiplier: int, base: int, length: int
) -> list[tuple[CycleMultiset, StateMultigraph]]:
    """Every feasible cycle multiset with ``length`` edges, with its union.

    The kernel's strings grouped by edge multiset: by the feasibility
    criterion these are exactly the edge multisets whose union passes
    :func:`check_feasible`, one decomposition each.
    """
    records = walk_records(multiplier, base, length)
    return group_unions((r.string for r in records), multiplier, base)


@_bounded_cache(lambda: _CACHE_RECORDS, len)
def _search(
    multiplier: int, base: int, length: int, allow_leading_zero: bool
) -> tuple[SearchResult, ...]:
    records = walk_records(multiplier, base, length, allow_leading_zero=allow_leading_zero)
    return tuple(map(SearchResult, records))


def find_permutiples(
    multiplier: int, base: int, length: int, allow_leading_zero: bool = False
) -> list[SearchResult]:
    """All permutiples with ``length`` digits for the multiplier/base pair.

    The records of :func:`walk_records`, in its order, with their input
    strings; zero-led ones only if ``allow_leading_zero``.  The last few
    searches are cached, up to ``_CACHE_RECORDS`` results in all.
    """
    return list(_search(multiplier, base, length, allow_leading_zero))


def _count_signatures(base: int, width: int, length: int) -> list[int]:
    """Packed digit counts of every zero-padded ``width``-digit block.

    Entry ``y`` is the sum of ``(length+1)**d`` over the digits ``d`` of
    ``y``; a count never exceeds ``length``, so blocks of a ``length``-digit
    number add up to a value that determines its digit multiset.
    """
    weights = [(length + 1) ** d for d in range(base)]
    table = [0]
    for _ in range(width):
        table = [s + w for s in table for w in weights]
    return table


def brute_force_oracle(
    multiplier: int,
    base: int,
    length: int,
    allow_leading_zero: bool = False,
    scan_limit: int = DEFAULT_SCAN_LIMIT,
) -> list[PermutipleRecord]:
    """Exhaustive integer scan, independent of the graph machinery.

    Visits the multiples ``n*q`` below ``base**length`` and keeps those
    whose zero-padded digits are a permutation of the digits of ``q``.
    A rearrangement keeps the digit sum, and a number is congruent to its
    digit sum modulo ``base - 1``, so every hit has n*q = q (mod b-1): only
    q divisible by s = (b-1) / gcd(n-1, b-1) are visited (s >= 2, as the
    gcd is at most n-1 < b-1).  Each candidate compares packed digit-count
    signatures, read from two tables of half-width blocks (:func:`_count_signatures`); every hit is
    then rebuilt as digit strings and proved by :func:`build_record`, a
    failed proof raised as :class:`InvariantError`.  Refuses scans beyond ``scan_limit`` candidate strings, and signature tables beyond about 128 MiB (a
    signature takes ``base * log2(length + 1)`` bits, so at the default
    limit this refuses only one-digit scans in bases above about 23,000).
    """
    n, b = multiplier, base
    check_multiplier(n, b)
    check_length(length)
    if b**length > scan_limit:
        raise ScanLimitError(
            f"scan of {b}**{length} digit strings exceeds the limit {scan_limit}"
        )
    half = length // 2
    table_bytes = (b**half + b ** (length - half)) * b * (length + 1).bit_length() // 8
    if table_bytes > _SIGNATURE_TABLE_BYTES:
        raise ScanLimitError(
            f"signature tables of about {table_bytes} bytes for base {b} exceed "
            f"{_SIGNATURE_TABLE_BYTES} bytes"
        )
    m = b**half
    lo = _count_signatures(b, half, length)
    hi = _count_signatures(b, length - half, length)
    records = []
    for q in range(0, (b**length - 1) // n + 1, (b - 1) // gcd(n - 1, b - 1)):
        v = n * q
        if lo[v % m] + hi[v // m] != lo[q % m] + hi[q // m]:
            continue
        digits = DigitString.from_int(b, v, width=length).digits
        preimage = DigitString.from_int(b, q, width=length).digits
        try:
            record = build_record(n, b, digits, preimage)
        except (MultisetMismatchError, ParameterError) as exc:
            raise InvariantError(f"oracle hit {v} = {n} * {q}: {exc}") from None
        if allow_leading_zero or record.canonical:
            records.append(record)
    return records
