"""Shared test helpers and frozen known-equation tables.

Equations are stored display-first (most significant digit first) as
(multiplier, base, digits, preimage) tuples.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from itertools import combinations_with_replacement, permutations, product
from typing import Iterable, Sequence

from hypothesis import strategies as st

import permutiple
from permutiple import (
    CycleMultiset,
    DigitGraph,
    DigitString,
    Permutation,
    PermutipleRecord,
    build_mother_graph,
    canonical_sigma,
    check_feasible,
    cycle_image,
    enumerate_cycles,
    eulerian_strings,
    graph_of_permutiple,
    string_to_permutiple,
    union_images,
    transition,
    verify_permutiple,
    walk_states,
)
from permutiple.digits import check_multiplier, smallest_bijection
from permutiple.errors import ParameterError, WalkError
from permutiple.machine import StateGraph, StateMultigraph
from permutiple.serialize import format_pair, parse_seed


def child_env() -> dict[str, str]:
    """The environment of a child process that imports the package these
    tests import, whether or not it is installed."""
    src = os.path.dirname(os.path.dirname(permutiple.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def make_record(
    multiplier: int, base: int, digits: tuple[int, ...], preimage: tuple[int, ...]
) -> PermutipleRecord:
    """Build a verified record from display-order digit tuples."""
    digit_string = DigitString.from_display(base, digits)
    preimage_string = DigitString.from_display(base, preimage)
    sigma = canonical_sigma(digit_string, preimage_string)
    assert sigma is not None, f"digit multisets differ: {digits} vs {preimage}"
    record = verify_permutiple(digit_string, sigma, multiplier)
    assert record is not None, f"{digits} != {multiplier} * {preimage} in base {base}"
    return record


def carries_by_value(
    multiplier: int, base: int, digits: tuple[int, ...], preimage: tuple[int, ...]
) -> tuple[int, ...]:
    """Carry sequence derived from prefix values alone.

    Telescoping the carry recurrence gives
    ``carry[j] * base**j == multiplier * value(preimage[:j]) - value(digits[:j])``
    over least-significant prefixes, so the carries follow from whole-number
    arithmetic with no positionwise multiplication.
    """
    lsb_digits = tuple(reversed(digits))
    lsb_preimage = tuple(reversed(preimage))
    carries = []
    for j in range(len(lsb_digits) + 1):
        digit_value = sum(d * base**i for i, d in enumerate(lsb_digits[:j]))
        preimage_value = sum(d * base**i for i, d in enumerate(lsb_preimage[:j]))
        numerator = multiplier * preimage_value - digit_value
        assert numerator % base**j == 0, "prefix identity failed"
        carries.append(numerator // base**j)
    return tuple(carries)


def distinct_orderings(items):
    """All distinct orderings of a small multiset."""
    return sorted(set(permutations(items)))


def is_permutiple_string(inputs, multiplier: int, base: int) -> bool:
    """Accepted by the machine and balanced between left/right components."""
    try:
        walk_states(inputs, multiplier, base)
    except WalkError:
        return False
    return Counter(d1 for d1, _ in inputs) == Counter(d2 for _, d2 in inputs)


def reference_transitions(multiplier: int, base: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Every machine transition as {(d, p): (c, c')}, found by solving
    b*c' + d = n*p + c over every carry c, c' in 0..n-1 and preimage digit p
    in 0..b-1, keeping the solutions whose digit d lies in 0..b-1."""
    found = {}
    for c, c_out, p in product(range(multiplier), range(multiplier), range(base)):
        d = multiplier * p + c - base * c_out
        if 0 <= d < base:
            assert (d, p) not in found, f"({d}, {p}) has two transitions"
            found[d, p] = (c, c_out)
    return found


def transitive_closure(nodes, edges):
    """Every pair (u, v) of ``nodes`` with u reaching v, each node reaching
    itself; Warshall's algorithm.  ``nodes`` must hold every edge end."""
    reach = {u: {u} for u in nodes}
    for u, v in edges:
        reach[u].add(v)
    for k in reach:
        for row in reach.values():
            if k in row:
                row |= reach[k]
    return {(u, v) for u, row in reach.items() for v in row}


def reference_strongly_connected(nodes, edges):
    """The nonempty ``nodes`` reach each other, every ordered pair of them,
    by transitive closure."""
    nodes = set(nodes)
    closure = transitive_closure(nodes, edges)
    return bool(nodes) and all((u, v) in closure for u in nodes for v in nodes)


def reference_cycle_union(graph):
    """The edges covered by the simple cycles of ``graph`` are all of its edges."""
    covered = set()
    for cycle in enumerate_cycles(graph):
        covered.update(cycle.edges)
    return covered == set(graph.edges)


def reference_oracle(multiplier, base, length, allow_leading_zero=False):
    """The integer scan with digit strings built for every candidate.

    The library's oracle compares packed digit-count signatures instead;
    this is the plain version it must agree with, record for record and
    in the same order.
    """
    records = []
    for q in range((base**length - 1) // multiplier + 1):
        v = multiplier * q
        digits = DigitString.from_int(base, v, width=length)
        preimage = DigitString.from_int(base, q, width=length)
        if digits.multiset() != preimage.multiset():
            continue
        record = verify_permutiple(digits, canonical_sigma(digits, preimage), multiplier)
        assert record is not None, f"{v} = {multiplier} * {q} failed verification"
        if allow_leading_zero or record.canonical:
            records.append(record)
    return records


def reference_seed_to_record(text: str) -> PermutipleRecord | None:
    """A seed through the validating constructors: the smallest sigma onto
    the preimage, then the multiplication re-run by ``verify_permutiple``.
    None when the multisets differ or the equation fails."""
    n, base, lhs, rhs = parse_seed(text)
    digits = DigitString.from_display(base, lhs)
    preimage = DigitString.from_display(base, rhs)
    sigma = canonical_sigma(digits, preimage)
    return None if sigma is None else verify_permutiple(digits, sigma, n)


def reference_record_to_text(record: PermutipleRecord) -> str:
    """The text line of a record, written field by field from the record.

    ``permutiple.serialize`` writes both formats through one line builder;
    these two renderers are the plain versions it must match byte for byte.
    """
    digits = ",".join(str(d) for d in record.digits.display)
    preimage = ",".join(str(d) for d in record.preimage.display)
    carries = ",".join(str(c) for c in reversed(record.carries[:-1]))
    return (
        f"({digits})_{record.base} = {record.multiplier} * ({preimage})_{record.base}"
        f"  [carries {carries}]"
    )


def reference_record_to_json(record: PermutipleRecord) -> str:
    """The JSON line of a record through ``json.dumps`` with sorted keys,
    its class edges read from the record's digit graph."""
    payload = {
        "base": record.base,
        "canonical": record.canonical,
        "carries": list(reversed(record.carries[:-1])),
        "class_edges": [format_pair(e) for e in graph_of_permutiple(record).sorted_edges],
        "digits": list(record.digits.display),
        "multiplier": record.multiplier,
        "preimage": list(record.preimage.display),
        "sigma": list(record.sigma.mapping),
        "value": record.value(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Reference graph renderers: one per graph and format, as the library wrote
# them before its three writers read every graph as one list of arcs.


def _reference_dot_lines(name: str, nodes: Iterable[str], arcs: Iterable[str]) -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    lines.extend(f"  {node};" for node in nodes)
    lines.extend(f"  {arc};" for arc in arcs)
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_digit_graph_to_dot(graph: DigitGraph, name: str) -> str:
    nodes = [str(v) for v in graph.vertices]
    arcs = [f"{d1} -> {d2}" for d1, d2 in graph.sorted_edges]
    return _reference_dot_lines(name, nodes, arcs)


def reference_state_graph_to_dot(graph: StateGraph, name: str) -> str:
    nodes = [str(c) for c in sorted(graph.states)]
    arcs = [
        f'{c1} -> {c2} [label="{",".join(format_pair(p) for p in labels)}"]'
        for (c1, c2), labels in graph.edges
    ]
    return _reference_dot_lines(name, nodes, arcs)


def reference_state_multigraph_to_dot(graph: StateMultigraph, name: str) -> str:
    nodes = [str(c) for c in sorted(graph.states)]
    arcs = [f'{c1} -> {c2} [label="{format_pair(label)}"]' for c1, c2, label in graph.edges]
    return _reference_dot_lines(name, nodes, arcs)


def _reference_json_dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def reference_digit_graph_to_json(graph: DigitGraph) -> str:
    return _reference_json_dump(
        {
            "kind": "mother-graph",
            "base": graph.base,
            "vertices": list(graph.vertices),
            "edges": [f"{d1}->{d2}" for d1, d2 in graph.sorted_edges],
        }
    )


def reference_state_graph_to_json(graph: StateGraph) -> str:
    return _reference_json_dump(
        {
            "kind": "hs-graph",
            "multiplier": graph.multiplier,
            "base": graph.base,
            "states": sorted(graph.states),
            "edges": {
                f"{c1}->{c2}": [format_pair(p) for p in labels]
                for (c1, c2), labels in graph.edges
            },
        }
    )


def reference_state_multigraph_to_json(graph: StateMultigraph) -> str:
    return _reference_json_dump(
        {
            "kind": "hs-multigraph",
            "multiplier": graph.multiplier,
            "base": graph.base,
            "states": sorted(graph.states),
            "edges": [f"{c1}->{c2}:{format_pair(label)}" for c1, c2, label in graph.edges],
        }
    )


def reference_digit_graph_to_text(graph: DigitGraph) -> str:
    lines = [f"vertices: {' '.join(str(v) for v in graph.vertices)}"]
    lines.extend(f"{d1} -> {d2}" for d1, d2 in graph.sorted_edges)
    return "\n".join(lines) + "\n"


def reference_state_graph_to_text(graph: StateGraph) -> str:
    lines = [f"states: {' '.join(str(c) for c in sorted(graph.states))}"]
    for (c1, c2), labels in graph.edges:
        lines.append(f"{c1} -> {c2}  {','.join(format_pair(p) for p in labels)}")
    return "\n".join(lines) + "\n"


def reference_state_multigraph_to_text(graph: StateMultigraph) -> str:
    lines = [f"states: {' '.join(str(c) for c in sorted(graph.states))}"]
    lines.extend(f"{c1} -> {c2}  {format_pair(label)}" for c1, c2, label in graph.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Machine images that only tests build: the images of single cycles, their
# multiset sums and the empty graphs.  The library builds an image from its
# labels, a set or a multiset of mother-graph edges, in one pass.


def multi_image(cycle, multiplier: int, base: int) -> StateMultigraph:
    """As ``cycle_image`` but with one multi-edge per cycle edge."""
    return StateMultigraph(multiplier, base, cycle.edges)


def multiset_union(parts) -> StateMultigraph:
    """Multiset sum of multigraphs of one multiplier and base: parallel
    copies accumulate."""
    if not parts or len({(part.multiplier, part.base) for part in parts}) != 1:
        raise ParameterError("need graphs of one multiplier and base to union")
    labels = [label for part in parts for label in part.labels]
    return StateMultigraph(parts[0].multiplier, parts[0].base, labels)


def empty_state_graph(multiplier: int, base: int) -> StateGraph:
    return StateGraph(multiplier, base, ())


def empty_state_multigraph(multiplier: int, base: int) -> StateMultigraph:
    return StateMultigraph(multiplier, base, ())


# ---------------------------------------------------------------------------
# Reference engine: permutiple strings as Eulerian circuits of feasible cycle
# multisets, the paper's construction.  The library searches with the
# carry-machine walk instead; tests compare the two.


def cycle_combinations(inventory, total):
    """All cycle multisets over ``inventory`` with edge total ``total``.

    Cycles are grouped by length; for each way of splitting the budget
    across lengths, cycles within a length bucket are chosen as multisets.
    Yields sparse counters in a deterministic order.
    """
    by_length = {}
    for cycle in inventory:
        by_length.setdefault(len(cycle), []).append(cycle)
    lengths = sorted(by_length)

    def split(level, budget, chosen):
        if budget == 0:
            yield Counter(chosen)
            return
        if level == len(lengths):
            return
        length = lengths[level]
        bucket = by_length[length]
        for take in range(budget // length + 1):
            if take == 0:
                yield from split(level + 1, budget, chosen)
            else:
                for combo in combinations_with_replacement(bucket, take):
                    chosen.extend(combo)
                    yield from split(level + 1, budget - take * length, chosen)
                    del chosen[-take:]

    yield from split(0, total, [])


def _feasible_distinct(solutions, multiplier, base):
    """Feasible unions of the given cycle counters, one per edge multiset."""
    seen = set()
    out = []
    for counts in solutions:
        multiset = CycleMultiset.from_counts(counts)
        key = tuple(sorted(multiset.edge_counter().elements()))
        if key in seen:
            continue
        seen.add(key)
        delta = multiset.multigraph(multiplier, base)
        if check_feasible(delta):
            out.append((multiset, delta))
    return out


def reference_feasible_unions(multiplier, base, length):
    """Every feasible cycle multiset of the mother graph with ``length`` edges."""
    inventory = enumerate_cycles(build_mother_graph(multiplier, base), max_length=length)
    return _feasible_distinct(cycle_combinations(inventory, length), multiplier, base)


def reference_strings(multiplier, base, length):
    """All permutiple strings of ``length`` inputs, sorted, via Eulerian circuits."""
    strings = []
    for _, delta in reference_feasible_unions(multiplier, base, length):
        strings.extend(eulerian_strings(delta))
    return sorted(strings)


def reference_class_unions(record):
    """Feasible cycle multisets of the record's class graph whose vertex
    multiset is the record's digit multiset."""
    cycles = enumerate_cycles(graph_of_permutiple(record))
    solutions = []
    chosen = Counter()

    def solve(idx, remaining):
        if not remaining:
            solutions.append(Counter(chosen))
            return
        if idx == len(cycles):
            return
        cycle = cycles[idx]
        need = Counter(cycle.vertices)
        max_mult = min(remaining[v] // need[v] for v in need)
        for mult in range(max_mult + 1):
            if mult:
                chosen[cycle] = mult
            rest = remaining - Counter({v: c * mult for v, c in need.items()})
            solve(idx + 1, +rest)
        chosen.pop(cycle, None)

    solve(0, Counter(record.digits.digits))
    return _feasible_distinct(solutions, record.multiplier, record.base)


def reference_class_images(multiplier, graph):
    """The union of the images of every simple cycle of a class graph."""
    cycles = enumerate_cycles(graph)
    return union_images([cycle_image(c, multiplier, graph.base) for c in cycles])


def reference_class_members(record):
    """Class members read off the Eulerian circuits of the class unions."""
    found = {}
    for _, delta in reference_class_unions(record):
        for string in eulerian_strings(delta):
            member = string_to_permutiple(string, record.multiplier, record.base).record
            found.setdefault(member.key, member)
    return [found[key] for key in sorted(found)]


def reference_symmetries_fixing_sequence(record):
    """Transition-fixing permutations through the per-group matcher.

    Every rearrangement of inputs within the groups of positions sharing a
    transition that changes the string must be a permutiple string.  Its
    permutation fixes the unchanged positions; then, group by group, each
    moved position takes the first unused position of its own group that
    held its new input.
    """
    s = record.string
    c = record.carries
    groups = {}
    for i in range(len(s)):
        groups.setdefault((c[i], c[i + 1]), []).append(i)
    group_list = sorted(groups.values())
    per_group = [distinct_orderings([s[i] for i in g]) for g in group_list]
    out = []
    for assignment in product(*per_group):
        target = list(s)
        for g, arranged in zip(group_list, assignment):
            for pos, value in zip(g, arranged):
                target[pos] = value
        if tuple(target) == s:
            continue
        assert is_permutiple_string(target, record.multiplier, record.base)
        mapping = [None] * len(s)
        used = [False] * len(s)
        for i in range(len(s)):
            if target[i] == s[i]:
                mapping[i] = i
                used[i] = True
        for g in group_list:
            for i in g:
                if mapping[i] is not None:
                    continue
                for j in g:
                    if not used[j] and s[j] == target[i]:
                        mapping[i] = j
                        used[j] = True
                        break
        out.append(Permutation(tuple(mapping)))
    return sorted(out, key=lambda p: p.mapping)


def reference_siblings(record, reflect):
    """(j, sibling) for every position whose carry marks one (n-1 when
    ``reflect``, else 0): the input string rotated to start at j, its pairs
    reflected when ``reflect``, and read back through the machine."""
    n, b, s = record.multiplier, record.base, record.string
    out = []
    for j in range(len(s)):
        if record.carries[j] == (n - 1 if reflect else 0):
            rotated = s[j:] + s[:j]
            if reflect:
                rotated = tuple((b - 1 - d, b - 1 - p) for d, p in rotated)
            out.append((j, string_to_permutiple(rotated, n, b).record))
    return out


def reference_walked_fixing_images(record):
    """(phi, image) for every reference transition-fixing phi: the input
    string with position i holding input phi(i), read back through the
    machine."""
    n, b, s = record.multiplier, record.base, record.string
    return [
        (phi, string_to_permutiple(tuple(s[phi(i)] for i in range(len(s))), n, b).record)
        for phi in reference_symmetries_fixing_sequence(record)
    ]



def reference_fixing_images(record):
    """(phi, image) for every transition-fixing symmetry, sorted by phi's
    mapping, over the whole string at once: each product of the groups'
    distinct arrangements (the identity one included) is diffed against
    the string, and the moved positions get :func:`smallest_bijection` of
    all of them together.  Images are built as the library builds them."""
    from permutiple.symmetry import _distinct_arrangements, _rearranged

    s, c = record.string, record.carries
    groups = {}
    for i, transition in enumerate(zip(c, c[1:])):  # input i takes (c_i, c_{i+1})
        groups.setdefault(transition, []).append(i)
    group_list = sorted(groups.values())
    per_group = [list(_distinct_arrangements([s[i] for i in g])) for g in group_list]

    out = []
    for assignment in product(*per_group):
        target = list(s)
        for g, arranged in zip(group_list, assignment):
            for pos, value in zip(g, arranged):
                target[pos] = value
        moved = [i for i in range(len(s)) if target[i] != s[i]]
        if not moved:
            continue
        mapping = list(range(len(s)))
        matched = smallest_bijection([s[i] for i in moved], [target[i] for i in moved])
        for i, m in zip(moved, matched):
            mapping[i] = moved[m]
        out.append((Permutation(tuple(mapping)), _rearranged(record, mapping, False)))
    out.sort(key=lambda pair: pair[0].mapping)
    return out

# ---------------------------------------------------------------------------
# Reference kernel: the carry machine walked from the least significant
# digit, where the library's long-division walk starts at the most
# significant.  Its strings come out in input-string order, so
# ``reference_records`` sorts them into the library's output order.

Pair = tuple[int, int]
InputString = tuple[Pair, ...]


def walk_strings(
    multiplier: int,
    base: int,
    length: int,
    edges: Iterable[Pair],
    left_digits: Sequence[int] | None = None,
) -> list[InputString]:
    """Every permutiple string of ``length`` inputs drawn from ``edges``.

    Walks the carry machine from carry 0 and accepts exactly the strings
    that end at carry 0 with every digit balanced (used as often on the left
    as on the right).  A walk state (carry, steps left, balance vector) is
    pruned when the carry's distance back to 0, or the positive part of the
    balance, exceeds the steps left, and is remembered as dead once nothing
    below it is accepted.  ``left_digits`` pins the multiset of left
    components.  The stack is explicit, so recursion depth does not grow
    with ``length``.  Strings come out in lexicographic order, each one a
    distinct (digits, preimage) pair.
    """
    n, k = multiplier, length
    check_multiplier(n, base)
    if k < 1 or (left_digits is not None and len(left_digits) != k):
        raise ParameterError(f"length must be at least 1 and match the pinned digits; got {k}")
    edges = sorted(set(edges))
    digits = sorted({d for edge in edges for d in edge})
    index = {d: i for i, d in enumerate(digits)}
    left = [k if left_digits is None else left_digits.count(d) for d in digits]
    if left_digits is not None and sum(left) != k:
        return []  # a pinned digit lies on none of the edges

    # Balance entries lie in -k..k and left-use counts in 0..k, so powers of
    # 2k+1 pack the balance (and, when pinned, the left uses above it) into
    # one int that each input shifts by a fixed step; the memo keys on it.
    width = 2 * k + 1
    by_source: list[list[tuple[Pair, int, int, int, int]]] = [[] for _ in range(n)]
    for edge in edges:
        c1, c2 = transition(edge, n, base)
        x, y = index[edge[0]], index[edge[1]]
        pinned = width ** (len(digits) + x) if left_digits is not None else 0
        by_source[c1].append((edge, c2, x, y, width**x - width**y + pinned))
    distance = [0] + [k + 1] * (n - 1)  # inputs needed to get back to carry 0
    for _ in range(n):
        for c1, options in enumerate(by_source):
            for option in options:
                distance[c1] = min(distance[c1], distance[option[1]] + 1)

    out: list[InputString] = []
    path: list[Pair] = []
    balance = [0] * len(digits)
    dead: set[int] = set()
    # frame: untried inputs, packed code, positive part of the balance, whether
    # anything below was accepted, digit indices of the input in, memo key
    stack: list[list] = [[iter(by_source[0]), 0, 0, False, 0, 0, 0]]
    while stack:
        frame = stack[-1]
        code, surplus, steps = frame[1], frame[2], k - len(path)
        for edge, c2, x, y, step in frame[0]:
            after = surplus + (balance[x] >= 0) - (balance[y] > 0) if x != y else surplus
            if distance[c2] >= steps or after >= steps or not left[x]:
                continue
            if steps == 1:
                out.append((*path, edge))
                frame[3] = True
                continue
            key = ((code + step) * k + steps - 1) * n + c2
            if key in dead:
                continue
            balance[x] += 1
            balance[y] -= 1
            left[x] -= 1
            path.append(edge)
            stack.append([iter(by_source[c2]), code + step, after, False, x, y, key])
            break
        else:
            stack.pop()
            if stack:
                x, y = frame[4], frame[5]
                balance[x] -= 1
                balance[y] += 1
                left[x] += 1
                path.pop()
                if frame[3]:
                    stack[-1][3] = True
                else:
                    dead.add(frame[6])
    return out


def reference_records(multiplier, base, length, edges, left_digits=None, allow_leading_zero=True):
    """The forward walk's strings as records, sorted by display digits."""
    strings = walk_strings(multiplier, base, length, edges, left_digits)
    records = sorted(
        (string_to_permutiple(s, multiplier, base).record for s in strings), key=lambda r: r.key
    )
    return [r for r in records if allow_leading_zero or r.canonical]


# ---------------------------------------------------------------------------
# Known digit-preserving multiplications.

CLASSIC_EQUATIONS = [
    (4, 10, (8, 7, 9, 1, 2), (2, 1, 9, 7, 8)),
    (9, 10, (9, 8, 9, 0, 1), (1, 0, 9, 8, 9)),
    (5, 10, (7, 1, 4, 2, 8, 5), (1, 4, 2, 8, 5, 7)),
    (4, 10, (4, 9, 3, 8, 2, 7, 1, 5, 6), (1, 2, 3, 4, 5, 6, 7, 8, 9)),
    (4, 10, (7, 9, 1, 2, 8), (1, 9, 7, 8, 2)),
    (4, 10, (7, 8, 9, 1, 2), (1, 9, 7, 2, 8)),
    (2, 6, (4, 3, 5, 1, 2), (2, 1, 5, 3, 4)),
]

# The four conjugate arrangements of the digits {1, 2, 7, 8, 9}.
CONJUGATE_ROWS = [
    (4, 10, (8, 7, 9, 1, 2), (2, 1, 9, 7, 8)),
    (4, 10, (8, 7, 1, 9, 2), (2, 1, 7, 9, 8)),
    (4, 10, (7, 9, 1, 2, 8), (1, 9, 7, 8, 2)),
    (4, 10, (7, 1, 9, 2, 8), (1, 7, 9, 8, 2)),
]

# A same-digit arrangement outside that conjugate family.
OUTSIDE_ROW = (4, 10, (7, 8, 9, 1, 2), (1, 9, 7, 2, 8))

NINE_DIGIT_EQUATIONS = [
    (4, 10, (7, 2, 7, 1, 1, 9, 2, 8, 8), (1, 8, 1, 7, 7, 9, 8, 2, 2)),
    (4, 10, (8, 7, 1, 9, 2, 7, 1, 2, 8), (2, 1, 7, 9, 8, 1, 7, 8, 2)),
]

FAMILY_86712 = [
    (4, 10, (8, 6, 7, 1, 2), (2, 1, 6, 7, 8)),
    (4, 10, (7, 1, 3, 2, 8), (1, 7, 8, 3, 2)),
    (4, 10, (8, 7, 1, 3, 2), (2, 1, 7, 8, 3)),
    (4, 10, (6, 7, 1, 2, 8), (1, 6, 7, 8, 2)),
]

FAMILY_BASE4 = [
    (3, 4, (3, 1, 1, 0, 2, 2), (1, 0, 1, 2, 3, 2)),
    (3, 4, (1, 1, 0, 2, 2, 3), (0, 1, 2, 3, 2, 1)),
]

TEN_DIGIT_EQUATIONS = [
    (4, 10, (8, 6, 7, 1, 2, 8, 7, 1, 3, 2), (2, 1, 6, 7, 8, 2, 1, 7, 8, 3)),
    (4, 10, (7, 2, 8, 8, 6, 7, 1, 1, 3, 2), (1, 8, 2, 2, 1, 6, 7, 7, 8, 3)),
    (4, 10, (6, 7, 2, 7, 1, 1, 3, 2, 8, 8), (1, 6, 8, 1, 7, 7, 8, 3, 2, 2)),
]

# The nine-digit class with digits {1,1,2,2,7,7,8,8,9}: the seed, its two
# transposition variants, rotations, reflected relatives, and one
# non-cyclic rearrangement.
NINE_DIGIT_CLASS = {
    "seed": (4, 10, (7, 2, 7, 1, 1, 9, 2, 8, 8), (1, 8, 1, 7, 7, 9, 8, 2, 2)),
    "transposed": [
        (4, 10, (7, 2, 7, 1, 9, 1, 2, 8, 8), (1, 8, 1, 7, 9, 7, 8, 2, 2)),
        (4, 10, (7, 2, 7, 9, 1, 1, 2, 8, 8), (1, 8, 1, 9, 7, 7, 8, 2, 2)),
    ],
    "rotations": [
        (4, 10, (8, 7, 2, 7, 1, 1, 9, 2, 8), (2, 1, 8, 1, 7, 7, 9, 8, 2)),
        (4, 10, (8, 8, 7, 2, 7, 1, 1, 9, 2), (2, 2, 1, 8, 1, 7, 7, 9, 8)),
        (4, 10, (7, 1, 1, 9, 2, 8, 8, 7, 2), (1, 7, 7, 9, 8, 2, 2, 1, 8)),
    ],
    "transposed_rotations": [
        (4, 10, (8, 7, 2, 7, 1, 9, 1, 2, 8), (2, 1, 8, 1, 7, 9, 7, 8, 2)),
        (4, 10, (8, 8, 7, 2, 7, 1, 9, 1, 2), (2, 2, 1, 8, 1, 7, 9, 7, 8)),
        (4, 10, (7, 1, 9, 1, 2, 8, 8, 7, 2), (1, 7, 9, 7, 8, 2, 2, 1, 8)),
        (4, 10, (8, 7, 2, 7, 9, 1, 1, 2, 8), (2, 1, 8, 1, 9, 7, 7, 8, 2)),
        (4, 10, (8, 8, 7, 2, 7, 9, 1, 1, 2), (2, 2, 1, 8, 1, 9, 7, 7, 8)),
        (4, 10, (7, 9, 1, 1, 2, 8, 8, 7, 2), (1, 9, 7, 7, 8, 2, 2, 1, 8)),
    ],
    "noncyclic": [
        (4, 10, (7, 2, 8, 7, 1, 1, 9, 2, 8), (1, 8, 2, 1, 7, 7, 9, 8, 2)),
    ],
    "reflected": [
        (4, 10, (7, 1, 1, 2, 7, 2, 8, 8, 0), (1, 7, 7, 8, 1, 8, 2, 2, 0)),
        (4, 10, (0, 7, 1, 1, 2, 7, 2, 8, 8), (0, 1, 7, 7, 8, 1, 8, 2, 2)),
        (4, 10, (8, 0, 7, 1, 1, 2, 7, 2, 8), (2, 0, 1, 7, 7, 8, 1, 8, 2)),
        (4, 10, (8, 8, 0, 7, 1, 1, 2, 7, 2), (2, 2, 0, 1, 7, 7, 8, 1, 8)),
    ],
    "reflected_transposed": [
        (4, 10, (7, 1, 1, 2, 7, 2, 8, 0, 8), (1, 7, 7, 8, 1, 8, 2, 0, 2)),
        (4, 10, (8, 7, 1, 1, 2, 7, 2, 8, 0), (2, 1, 7, 7, 8, 1, 8, 2, 0)),
        (4, 10, (0, 8, 7, 1, 1, 2, 7, 2, 8), (0, 2, 1, 7, 7, 8, 1, 8, 2)),
        (4, 10, (8, 0, 8, 7, 1, 1, 2, 7, 2), (2, 0, 2, 1, 7, 7, 8, 1, 8)),
        (4, 10, (7, 1, 1, 2, 7, 2, 0, 8, 8), (1, 7, 7, 8, 1, 8, 0, 2, 2)),
        (4, 10, (8, 7, 1, 1, 2, 7, 2, 0, 8), (2, 1, 7, 7, 8, 1, 8, 0, 2)),
        (4, 10, (8, 8, 7, 1, 1, 2, 7, 2, 0), (2, 2, 1, 7, 7, 8, 1, 8, 0)),
        (4, 10, (0, 8, 8, 7, 1, 1, 2, 7, 2), (0, 2, 2, 1, 7, 7, 8, 1, 8)),
    ],
}


def nine_digit_class_equations() -> list[tuple]:
    out = [NINE_DIGIT_CLASS["seed"]]
    for group in (
        "transposed",
        "rotations",
        "transposed_rotations",
        "noncyclic",
        "reflected",
        "reflected_transposed",
    ):
        out.extend(NINE_DIGIT_CLASS[group])
    return out


ALL_KNOWN_EQUATIONS = (
    CLASSIC_EQUATIONS
    + CONJUGATE_ROWS
    + [OUTSIDE_ROW]
    + NINE_DIGIT_EQUATIONS
    + FAMILY_86712
    + FAMILY_BASE4
    + TEN_DIGIT_EQUATIONS
    + nine_digit_class_equations()
)


# ---------------------------------------------------------------------------
# Frozen machine data for (4, 10) and (3, 4).

MACHINE_EDGES_4_10 = {
    (0, 0): ((0, 0), (4, 1), (8, 2)),
    (0, 1): ((2, 3), (6, 4)),
    (0, 2): ((0, 5), (4, 6), (8, 7)),
    (0, 3): ((2, 8), (6, 9)),
    (1, 0): ((1, 0), (5, 1), (9, 2)),
    (1, 1): ((3, 3), (7, 4)),
    (1, 2): ((1, 5), (5, 6), (9, 7)),
    (1, 3): ((3, 8), (7, 9)),
    (2, 0): ((2, 0), (6, 1)),
    (2, 1): ((0, 2), (4, 3), (8, 4)),
    (2, 2): ((2, 5), (6, 6)),
    (2, 3): ((0, 7), (4, 8), (8, 9)),
    (3, 0): ((3, 0), (7, 1)),
    (3, 1): ((1, 2), (5, 3), (9, 4)),
    (3, 2): ((3, 5), (7, 6)),
    (3, 3): ((1, 7), (5, 8), (9, 9)),
}

MACHINE_EDGES_3_4 = {
    (0, 0): ((0, 0), (3, 1)),
    (0, 1): ((2, 2),),
    (0, 2): ((1, 3),),
    (1, 0): ((1, 0),),
    (1, 1): ((0, 1), (3, 2)),
    (1, 2): ((2, 3),),
    (2, 0): ((2, 0),),
    (2, 1): ((1, 1),),
    (2, 2): ((0, 2), (3, 3)),
}

MOTHER_EDGES_3_4 = {
    (0, 0), (0, 1), (0, 2),
    (1, 0), (1, 1), (1, 3),
    (2, 0), (2, 2), (2, 3),
    (3, 1), (3, 2), (3, 3),
}


@st.composite
def small_points(draw):
    """A grid point (n, b, k) with b <= 8 and k <= 5, where every walk is quick."""
    base = draw(st.integers(3, 8))
    return draw(st.integers(2, base - 1)), base, draw(st.integers(1, 5))


def division_walk(*args, **kwargs):
    """The records of :func:`permutiple.search.walk_records` (same
    arguments, same order, same proofs) read as (digits, preimage,
    carries), least-significant first."""
    from permutiple import search

    for record in search.walk_records(*args, **kwargs):
        yield record.digits.digits, record._preimage, record.carries


# Faults that inject_walk_fault puts into the walk's plan at
# (4, 10, 5), where the tail holds h = 2 digits, each with the message the
# walk refuses it with.  (8, 2) is the transition 0 -> 0 in row 0.
WALK_FAULTS = {
    # built with the option (8, 2) of row 0 leading to carry 1, not 0
    "option-row": "carry recurrence violated in row 0: 4 \\* 2 \\+ 1 is not 10 \\* 0 \\+ 8",
    # the same option put into a plan already cached
    "cached-option-row": "carry recurrence violated in row 0: 4 \\* 2 \\+ 1 is not 10 \\* 0 \\+ 8",
    # the same option, with preimage digit 10 in place of 2, put into a plan
    # already cached
    "cached-preimage-digit": "digit out of range for base 10 in row 0",
    # the same option, with digit 10 in place of 8, put into a plan already
    # cached, where it would index the pinned counts past their end
    "cached-digit": "digit out of range for base 10 in row 0",
    # the option (2, 2) from carry 4, which no multiplier 4 has, put first
    # into row 1 of a plan already cached: 4 * 2 + 4 = 10 * 1 + 2 holds
    "cached-carry": "carry 4 out of range for multiplier 4 in row 1",
    # tail runs built with digit 9 in place of 8 on the transition (8, 2)
    "tail-digit": "carry recurrence violated in row 0: 4 \\* 2 \\+ 0 is not 10 \\* 0 \\+ 9",
    # the runs from carry 0 tabled as if from carry 3, and those from 3 as
    # from 0, where both carries table runs of one code
    "run-carry": "carries do not meet at position 2: a tail run ends at carry [03], the digits "
                 "above it start from carry [03]",
    # every bucket's runs and signature tabled under the next code of its carry
    "run-balance": "digit and preimage multisets differ",
    # the bucket of code 0 from carry 0, which the top 000 joins, tabled
    # without its last run, 00
    "run-dropped": "tail table holds 99 runs of 2 digits, not the 100 paths counted",
    # the last top half a plan already cached lists, starting from the next
    # carry up from its own
    "cached-top-carry": "carries do not meet at position 2",
    # the same top with its count signature raised by 1
    "cached-top-balance": "digit and preimage multisets differ",
}


def inject_walk_fault(monkeypatch, fault: str) -> None:
    """Put one of :data:`WALK_FAULTS` into the plans of
    :func:`permutiple.search.walk_records` at (4, 10, 5): through the
    plan's builders, so that it enters every plan built from then on, or,
    for the ``cached`` ones, into the plan a clean walk leaves cached."""
    from permutiple import search

    def cached_plan():
        assert list(search.walk_records(4, 10, 5))
        key = (4, 10, 5, None, None, search._TAIL_RUNS)
        return key, search._plan.entries[key]

    def cached(corrupt=lambda *option: option, first=None):
        key, plan = cached_plan()
        rows = [[corrupt(*o) if o[:2] == (8, 2) else o for o in row] for row in plan.rows]
        if first is not None:
            carry, option = first
            rows[carry].insert(0, option)
        search._plan.entries[key] = plan._replace(rows=tuple(map(tuple, rows)))

    def cached_top(corrupt):
        key, plan = cached_plan()
        tops = plan.tops  # the last is 958xx, so no call skips it as zero-led
        search._plan.entries[key] = plan._replace(tops=tops[:-1] + (corrupt(*tops[-1]),))

    def faulty_tails(corrupt_rows=None, corrupt_table=None):
        tails = search._tails

        def build(options, *args):
            if corrupt_rows is not None:
                options = [corrupt_rows(row) for row in options]
            table = tails(options, *args)
            return table if corrupt_table is None else corrupt_table(table)

        monkeypatch.setattr(search, "_tails", build)

    if fault == "option-row":
        carry_step = search.carry_step

        def step(n, b, d, p):
            c, carry = carry_step(n, b, d, p) or (None, None)
            return None if c is None else (c + ((d, p) == (8, 2)), carry)

        monkeypatch.setattr(search, "carry_step", step)
    elif fault == "cached-option-row":
        cached(lambda d, p, c, step: (d, p, c + 1, step))
    elif fault == "cached-preimage-digit":
        cached(lambda d, p, c, step: (d, 10, c, step))
    elif fault == "cached-digit":
        cached(lambda d, p, c, step: (10, p, c, step))
    elif fault == "cached-carry":
        cached(first=(1, (2, 2, 4, 0)))
    elif fault == "tail-digit":
        faulty_tails(corrupt_rows=lambda row: tuple(
            (9 if (d, p) == (8, 2) else d, p, c, step) for d, p, c, step in row
        ))
    elif fault == "run-carry":
        def swapped(table):  # keys code * 4 + c
            table = dict(table)
            for key in [key for key in table if key % 4 == 0 and key + 3 in table]:
                table[key], table[key + 3] = table[key + 3], table[key]
            return table

        faulty_tails(corrupt_table=swapped)
    elif fault == "cached-top-carry":
        cached_top(lambda key, c, *top: (key, (c + 1) % 4, *top))
    elif fault == "cached-top-balance":
        cached_top(lambda *top: (*top[:-1], top[-1] + 1))
    elif fault == "run-balance":
        def rotated(table):  # keys code * 4 + c, rotated among those of each carry
            out = {}
            for c in range(4):
                keys = [key for key in table if key % 4 == c]
                out.update(zip(keys, [table[key] for key in keys[1:] + keys[:1]]))
            return out

        faulty_tails(corrupt_table=rotated)
    elif fault == "run-dropped":
        def dropped(table):
            signature, runs = table[0]
            return {**table, 0: (signature, runs[:-1])}

        faulty_tails(corrupt_table=dropped)
    else:
        raise ValueError(fault)


def one_walk_plan(n: int, b: int, digits, preimage):
    """A plan for :func:`permutiple.search.walk_records` whose rows hold
    the positions of one walk and nothing else, least-significant first,
    with its tail table built by :func:`permutiple.search._tails`.

    Position j is the option (d_j, p_j) from carry c_j to c_{j+1}, where
    c_0 = c_k = 0, as at the two ends of every walk, and each carry between
    is the one its position's product leaves, ``(n*p_j + c_j) // b``, taken
    mod n so that it names a row.  The packed steps and signature weights
    are those of :func:`permutiple.search._plan` unpinned, the steps over
    every value the walk holds, out-of-range ones included; the rows are
    proved before any weight or count is read.  The tail holds k // 2
    digits, and the plan's size is read from its runs.  The plan lists no
    top halves, so the walk streams them."""
    from permutiple import search

    k = len(digits)
    values = sorted(set(digits) | set(preimage))
    index = {d: i for i, d in enumerate(values)}
    carries = [0]
    for p in preimage:
        carries.append((n * p + carries[-1]) // b % n)
    carries[-1] = 0
    rows: list[list] = [[] for _ in range(n)]
    for j, (d, p) in enumerate(zip(digits, preimage)):
        option = (d, p, carries[j], (2 * k + 1) ** index[d] - (2 * k + 1) ** index[p])
        if option not in rows[carries[j + 1]]:
            rows[carries[j + 1]].append(option)
    rows = tuple(tuple(sorted(row)) for row in rows)
    weights = [(k + 1) ** d for d in range(b)]
    h = k // 2
    tails = search._tails(rows, n, b, weights, h)
    size = max(sum(len(bucket[1]) for bucket in tails.values()), n + sum(map(len, rows)))
    return search._Plan(rows, 0, (k,) * b, h, weights, tails, None, 0, size)
