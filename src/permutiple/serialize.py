"""Text, JSON, and DOT renderings plus seed/equation/b-file parsing.

All output is byte-deterministic: edges, labels, and JSON keys are sorted
before rendering.  A permutiple's JSON and text lines are written in one
place, by :func:`record_to_json` and :func:`record_to_text`, from a record
that was proved when it was built; this module proves nothing again.
The mother graph, the machine's state graph and its multigraph have one
writer per format, :func:`graph_to_dot`, :func:`graph_to_json` and
:func:`graph_to_text`, each reading the graph as one list of arcs.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable, Sequence

from .digits import (
    DigitString,
    Permutation,
    PermutipleRecord,
    build_record,
    check_multiplier,
    verify_permutiple,
)
from .errors import BFileError, MultisetMismatchError, ParameterError, SeedError

if TYPE_CHECKING:
    from .graphs import DigitGraph
    from .machine import StateGraph, StateMultigraph

    Graph = DigitGraph | StateGraph | StateMultigraph

Pair = tuple[int, int]

__all__ = [
    "format_equation",
    "format_pair",
    "graph_to_dot",
    "graph_to_json",
    "graph_to_text",
    "parse_bfile",
    "parse_seed",
    "record_from_json",
    "record_to_json",
    "record_to_text",
    "seed_to_record",
]


def format_pair(pair: Pair) -> str:
    return f"({pair[0]},{pair[1]})"


def _format_digits(display: Sequence[int], base: int) -> str:
    if base <= 10:
        return "".join(str(d) for d in display)
    return ",".join(str(d) for d in display)


def format_equation(record: PermutipleRecord) -> str:
    """Seed-syntax equation, e.g. ``4x10:87912=4*21978``."""
    n, b = record.multiplier, record.base
    lhs = _format_digits(record.digits.display, b)
    rhs = _format_digits(record.preimage.display, b)
    return f"{n}x{b}:{lhs}={n}*{rhs}"


def _record_line(r: PermutipleRecord, text: bool) -> str:
    """The JSON (or, with ``text``, text) line of a record, unterminated; a
    text line leaves a built record's sigma unread."""
    n, b, digits, preimage, carries = r.multiplier, r.base, r.digits.digits, r._preimage, r.carries
    display = ",".join(map(str, digits[::-1]))
    display_preimage = ",".join(map(str, preimage[::-1]))
    shown_carries = ",".join(map(str, carries[-2::-1]))
    if text:
        return f"({display})_{b} = {n} * ({display_preimage})_{b}  [carries {shown_carries}]"
    value = 0
    for d in reversed(digits):
        value = value * b + d
    edges = ",".join(f'"({d},{p})"' for d, p in sorted(set(zip(digits, preimage))))
    return (
        f'{{"base":{b},"canonical":{"true" if digits[-1] else "false"},'
        f'"carries":[{shown_carries}],"class_edges":[{edges}],"digits":[{display}],'
        f'"multiplier":{n},"preimage":[{display_preimage}],'
        f'"sigma":[{",".join(map(str, r.sigma.mapping))}],"value":{value}}}'
    )


def record_to_text(record: PermutipleRecord) -> str:
    """``(digits)_b = n * (preimage)_b  [carries c_{k-1},...,c_0]``, digits
    most-significant first."""
    return _record_line(record, True)


def record_to_json(record: PermutipleRecord) -> str:
    """One compact JSON object per record, with sorted keys: ``base``,
    ``canonical`` (nonzero top digit), ``carries`` c_{k-1}..c_0,
    ``class_edges`` (the sorted distinct pairs (d_j,p_j)), ``digits`` and
    ``preimage`` most-significant first, ``multiplier``, ``sigma`` (the
    record's own, sigma(0)..sigma(k-1) over least-significant-first
    positions) and ``value``."""
    return _record_line(record, False)


def record_from_json(text: str) -> PermutipleRecord:
    """The record of a line that :func:`record_to_json` wrote.

    ``base``, ``multiplier``, ``digits`` and ``sigma`` build the record,
    which must verify as a permutiple.  The other fields may be left out,
    but a field that is present must equal what :func:`record_to_json`
    writes for that record, in value and JSON type.  Anything else, from
    text that is not JSON to an unknown key, raises :class:`ParameterError`.
    """
    import json

    try:
        payload = json.loads(text)
        n, b, display, mapping = (payload[key] for key in ("multiplier", "base", "digits", "sigma"))
        # JSON strings and objects unpack to strings, so only integer lists pass
        integral = all(type(x) is int for x in (n, b, *display, *mapping))
    except (ValueError, RecursionError, TypeError, KeyError) as exc:
        raise ParameterError(f"not a JSON record: {exc!r}") from None
    if not integral:
        raise ParameterError("JSON record base, multiplier, digits or sigma is not integral")
    record = verify_permutiple(DigitString.from_display(b, display), Permutation(tuple(mapping)), n)
    if record is None:
        raise ParameterError("JSON record does not verify as a permutiple")
    written = json.loads(record_to_json(record))
    for key, value in payload.items():
        if key not in written or json.dumps(value) != json.dumps(written[key]):
            raise ParameterError(f"JSON record key {key!r} is unknown or disagrees with the record")
    return record


_SEED_RE = re.compile(
    r"^\s*(?:(?P<n1>\d+)\s*x\s*(?P<b>\d+)\s*:)?\s*(?P<lhs>[0-9,]+)\s*=\s*(?P<n2>\d+)\s*\*\s*(?P<rhs>[0-9,]+)\s*$"
)


def _parse_digit_block(text: str, base: int, what: str) -> tuple[int, ...]:
    text = text.strip()
    if "," in text:
        try:
            display = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise SeedError(f"bad {what} digits: {text!r}") from exc
    else:
        if base > 10:
            raise SeedError(f"base {base} needs comma-separated {what} digits")
        if not text.isdigit():
            raise SeedError(f"bad {what} digits: {text!r}")
        display = tuple(int(ch) for ch in text)
    for d in display:
        if not 0 <= d < base:
            raise SeedError(f"{what} digit {d} out of range for base {base}")
    return display


def parse_seed(
    text: str, default_base: int | None = None
) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """Parse ``NxB:digits=n*digits`` (or ``digits=n*digits`` plus a base).

    Digits are bare symbols for bases up to 10 and comma-separated integers
    beyond.  Returns (multiplier, base, display digits, display preimage).
    """
    match = _SEED_RE.match(text)
    if not match:
        raise SeedError(f"cannot parse seed {text!r}")
    n2 = int(match.group("n2"))
    if match.group("n1") is not None:
        if int(match.group("n1")) != n2:
            raise SeedError("seed multiplier and equation multiplier disagree")
        base = int(match.group("b"))
    elif default_base is not None:
        base = default_base
    else:
        raise SeedError("seed carries no base; use the NxB: prefix or pass a base")
    lhs = _parse_digit_block(match.group("lhs"), base, "left")
    rhs = _parse_digit_block(match.group("rhs"), base, "right")
    if len(lhs) != len(rhs):
        raise SeedError("both sides of a seed must have the same digit count")
    return n2, base, lhs, rhs


def seed_to_record(text: str, default_base: int | None = None) -> PermutipleRecord | None:
    """Parse a seed and prove it like a search result; None when it fails.

    :func:`~permutiple.digits.build_record` proves the record.  A
    multiplier outside 1 < n < base raises :class:`ParameterError`, unless
    the two sides are not rearrangements of each other (then None).
    """
    n, base, lhs, rhs = parse_seed(text, default_base)
    try:
        return build_record(n, base, lhs[::-1], rhs[::-1])
    except MultisetMismatchError:
        return None
    except ParameterError:
        pass
    check_multiplier(n, base)  # a multiplier out of range is an error, not a false equation
    return None


def _graph_view(graph: Graph) -> tuple[str, list[int], list[tuple[int, int, list[str]]]]:
    """A graph as its node word, its sorted nodes, and its arcs
    ``(source, target, label strings)`` in the graph's order: no labels on
    a mother-graph arc, all of an edge's on a state-graph arc, and one on a
    multigraph arc."""
    from .graphs import DigitGraph
    from .machine import StateGraph

    if isinstance(graph, DigitGraph):
        return "vertices", list(graph.vertices), [(d1, d2, []) for d1, d2 in graph.sorted_edges]
    if isinstance(graph, StateGraph):
        arcs = [(c1, c2, [format_pair(p) for p in labels]) for (c1, c2), labels in graph.edges]
    else:
        arcs = [(c1, c2, [format_pair(label)]) for c1, c2, label in graph.edges]
    return "states", sorted(graph.states), arcs


def graph_to_dot(graph: Graph, name: str) -> str:
    """``digraph name``, left to right, one line per node and per arc; an
    arc's labels, comma-joined, are its DOT label."""
    _, nodes, arcs = _graph_view(graph)
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    lines.extend(f"  {node};" for node in nodes)
    for source, target, labels in arcs:
        label = f' [label="{",".join(labels)}"]' if labels else ""
        lines.append(f"  {source} -> {target}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_dump(payload: dict) -> str:
    import json

    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def graph_to_json(graph: Graph) -> str:
    """The kind, the base, the machine's multiplier, the nodes and the
    edges: ``"s->t"`` with each label appended after a colon, except that
    the state graph maps ``"s->t"`` to its labels."""
    from .graphs import DigitGraph
    from .machine import StateGraph

    word, nodes, arcs = _graph_view(graph)
    if isinstance(graph, StateGraph):
        kind, edges = "hs-graph", {f"{s}->{t}": labels for s, t, labels in arcs}
    else:
        kind = "mother-graph" if isinstance(graph, DigitGraph) else "hs-multigraph"
        edges = [":".join([f"{s}->{t}", *labels]) for s, t, labels in arcs]
    payload = {"kind": kind, "base": graph.base, word: nodes, "edges": edges}
    if not isinstance(graph, DigitGraph):
        payload["multiplier"] = graph.multiplier
    return _json_dump(payload)


def graph_to_text(graph: Graph) -> str:
    """``word: nodes``, then ``s -> t`` per arc, its labels comma-joined
    after two spaces."""
    word, nodes, arcs = _graph_view(graph)
    lines = [f"{word}: {' '.join(map(str, nodes))}"]
    for source, target, labels in arcs:
        lines.append(f"{source} -> {target}" + (f"  {','.join(labels)}" if labels else ""))
    return "\n".join(lines) + "\n"


def parse_bfile(lines: Iterable[str]) -> list[tuple[int, int]]:
    """Parse OEIS b-file lines: ``index value`` pairs, ``#`` comments.

    Indices must be strictly increasing; malformed lines raise
    :class:`BFileError` with their 1-based line number.
    """
    entries: list[tuple[int, int]] = []
    last_index: int | None = None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError(line_no, f"expected 'index value', got {raw.strip()!r}")
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileError(line_no, f"non-integer entry in {raw.strip()!r}") from None
        if value < 0:
            raise BFileError(line_no, f"negative value {value}")
        if last_index is not None and index <= last_index:
            raise BFileError(line_no, f"index {index} does not increase past {last_index}")
        last_index = index
        entries.append((index, value))
    return entries
