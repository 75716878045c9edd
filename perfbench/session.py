"""The class-session workload: one library client issuing symmetry queries.

The benchmark generates the query list from its seed and the golden record
pool (``make_queries``) and checks every answer against that pool
(``check``); neither step imports the program.  This file is also the
client process, which receives only the generated queries::

    PYTHONPATH=src python perfbench/session.py setup QUERIES.json
    PYTHONPATH=src python perfbench/session.py run QUERIES.json OUT.json SECONDS [TRACE.json]

``setup`` imports the library and loads the query seeds, then exits; the
benchmark times it as the workload's set-up.  ``run`` loads the same way,
then issues the query list in passes, one query at a time, until another
pass would overrun SECONDS (always at least one pass); after each pass it
times the reference scan.  With TRACE.json it
runs exactly one pass under the per-layer tracer.
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import time

import reference
from common import (
    FIND_POINTS,
    SEED_POINTS,
    carries_of,
    equation_holds,
    format_seed,
    graph_of,
    parse_seed,
    point_key,
)

QUERY_COUNT = 1000

# Untraced clients time the benchmark's reference scan (``reference.py``)
# in-process this many times after every pass, so the benchmark can scale
# the query latencies by the machine's speed over the same stretch of time.
REFERENCE_PER_PASS = 3

# Share of the query list per operation, in percent.  "find" re-reads the
# library's cached search on small grid points.  Class queries are a little
# over half, so that the median query falls inside their latency range
# rather than on the gap between them and the cheaper operations.
MIX = (
    ("class", 60),
    ("dihedral", 8),
    ("symmetries", 8),
    ("closure", 8),
    ("seed", 8),
    ("find", 8),
)


def _by_class_size(records: list[str]) -> list[str]:
    """Records ordered by the size of their class (members sharing the digit
    multiset whose graph lies inside theirs), which is what a class query's
    cost grows with."""
    parsed = [parse_seed(s) for s in records]
    groups: dict[tuple, list] = {}
    for _, _, digits, preimage in parsed:
        groups.setdefault(tuple(sorted(digits)), []).append(graph_of(digits, preimage))
    sizes = [
        sum(1 for other in groups[tuple(sorted(d))] if other <= graph_of(d, p))
        for _, _, d, p in parsed
    ]
    return [s for _, s in sorted(zip(sizes, records))]


def make_queries(seed: int, pool: dict[str, list[str]]) -> list[dict]:
    """A shuffled query list with fixed counts per operation and grid point.

    Seed records are drawn with ``seed`` by stratified sampling: each
    point's records, ordered by class size, are cut into as many equal
    strata as the point gets queries, and one record is drawn from each.
    Seeds thus change which records are asked about, and the order, but
    barely the total work."""
    rng = random.Random(seed)
    ordered = {key: _by_class_size(pool[key]) for key in map(lambda p: point_key(*p), SEED_POINTS)}
    queries: list[dict] = []
    for op, percent in MIX:
        count = QUERY_COUNT * percent // 100
        if op == "find":
            for i in range(count):
                n, b, k = FIND_POINTS[i % len(FIND_POINTS)]
                allow = (i // len(FIND_POINTS)) % 2 == 1
                queries.append({"op": op, "point": [n, b, k], "allow": allow})
            continue
        for p, point in enumerate(SEED_POINTS):
            records = ordered[point_key(*point)]
            share = count // len(SEED_POINTS) + (p < count % len(SEED_POINTS))
            for j in range(share):
                stratum = records[j * len(records) // share : (j + 1) * len(records) // share]
                queries.append({"op": op, "seed": rng.choice(stratum)})
    rng.shuffle(queries)
    return queries


# ------------------------------------------------------------------ client


def _record_text(record) -> str:
    return format_seed(record.multiplier, record.base, record.digits.display, record.preimage.display)


def _operations(pm):
    """Query callables and the plain-data form of their answers."""
    from permutiple.errors import NoReflectionError

    def closure(record):
        spec = pm.ClassSpec.from_record(record)
        try:
            return pm.symmetric_closure(spec)
        except NoReflectionError:
            return None

    calls = {
        "class": lambda q, rec: pm.enumerate_class_members(rec),
        "dihedral": lambda q, rec: pm.dihedral_siblings(rec),
        "symmetries": lambda q, rec: pm.symmetries_fixing_sequence(rec),
        "closure": lambda q, rec: closure(rec),
        "seed": lambda q, rec: pm.serialize.seed_to_record(q["seed"]),
        "find": lambda q, rec: pm.find_permutiples(*q["point"], q["allow"]),
    }
    forms = {
        "class": lambda res: sorted(_record_text(r) for r in res),
        "dihedral": lambda res: sorted(_record_text(r) for r in res),
        "symmetries": lambda res: [list(phi.mapping) for phi in res],
        "closure": lambda res: None if res is None else [list(e) for e in res.graph.sorted_edges],
        "seed": lambda res: None if res is None else _record_text(res),
        "find": lambda res: sorted(_record_text(r.record) for r in res),
    }
    return calls, forms


def _items(op: str, form) -> int:
    """Result items in an answer: records or permutations, else one object."""
    if form is None:
        return 0
    return 1 if op in ("closure", "seed") else len(form)


def _load(path: str):
    import permutiple as pm
    import permutiple.serialize  # noqa: F401  (seed_to_record lives here)

    with open(path, encoding="utf-8") as handle:
        queries = json.load(handle)
    records = {q["seed"]: pm.serialize.seed_to_record(q["seed"]) for q in queries if "seed" in q}
    return pm, queries, records


def _run(queries_path: str, out_path: str, seconds: float, trace_path: str | None) -> None:
    pm, queries, records = _load(queries_path)
    calls, forms = _operations(pm)
    tracer = None
    if trace_path:
        from tracer import SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        calls = {op: tracer.wrap(fn, f"session.{op}", SPAN) for op, fn in calls.items()}
    clock = time.perf_counter_ns
    latency: list[list[int]] = []
    first: list = []
    mismatched: list[list[int]] = []
    errors: dict[str, str] = {}
    reference_ns: list[int] = []
    cpus = sorted(os.sched_getaffinity(0))
    started = time.perf_counter()
    while True:
        # Passes take turns on the CPUs the client may use: a shared host can
        # slow one CPU for a whole run, and a process left alone stays on it.
        os.sched_setaffinity(0, {cpus[len(latency) % len(cpus)]})
        answers, times = [], []
        for index, query in enumerate(queries):
            fn = calls[query["op"]]
            record = records.get(query.get("seed"))
            if tracer is not None:
                tracer.job = index
            t0 = clock()
            try:
                answer = fn(query, record)
            except Exception as exc:  # every failed query is counted, not fatal
                answer = exc
            times.append(clock() - t0)
            answers.append(answer)
        latency.append(times)
        pass_forms = []
        for index, (query, answer) in enumerate(zip(queries, answers)):
            if isinstance(answer, Exception):
                errors.setdefault(str(index), f"{type(answer).__name__}: {answer}")
                pass_forms.append({"error": str(answer)})
            else:
                pass_forms.append(forms[query["op"]](answer))
        if not first:
            first = pass_forms
            mismatched.append([])
        else:
            mismatched.append([i for i, form in enumerate(pass_forms) if form != first[i]])
        if tracer is None:
            gc.disable()  # the scan makes no cycles; spare it the client's heap
            for _ in range(REFERENCE_PER_PASS):
                t0 = clock()
                reference.scan()
                reference_ns.append(clock() - t0)
            gc.enable()
        elapsed = time.perf_counter() - started
        if tracer is not None or elapsed * (len(latency) + 1) / len(latency) > seconds:
            break
    os.sched_setaffinity(0, cpus)
    payload = {
        "latency_ns": latency,
        "reference_ns": reference_ns,
        "forms": first,
        "mismatched": mismatched,
        "errors": errors,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    if tracer is not None:
        tracer.dump(trace_path)


# ----------------------------------------------------------------- checks


class Checker:
    """Expected answers computed from the golden record pool alone."""

    def __init__(self, pool: dict[str, list[str]]):
        self.pool = pool
        self.known = {key: set(records) for key, records in pool.items()}
        self.parsed = {key: [parse_seed(s) for s in records] for key, records in pool.items()}

    def _valid_member(self, key, n, b, digits, preimage) -> bool:
        text = format_seed(n, b, digits, preimage)
        return equation_holds(n, b, digits, preimage) and text in self.known.get(key, ())

    def expected(self, query: dict):
        """The expected answer of a find, seed, class or closure query."""
        op = query["op"]
        if op == "find":
            n, b, k = query["point"]
            return sorted(
                s for s, (_, _, digits, _) in zip(self.pool[point_key(n, b, k)],
                                                  self.parsed[point_key(n, b, k)])
                if query["allow"] or digits[0] != 0
            )
        n, b, digits, preimage = parse_seed(query["seed"])
        key = point_key(n, b, len(digits))
        if op == "seed":
            return query["seed"]
        if op == "class":
            graph = graph_of(digits, preimage)
            multiset = sorted(digits)
            return sorted(
                format_seed(n, b, d, p)
                for _, _, d, p in self.parsed[key]
                if sorted(d) == multiset and graph_of(d, p) <= graph
            )
        if op == "closure":
            if n - 1 not in carries_of(n, b, digits, preimage):
                return None
            graph = graph_of(digits, preimage)
            reflected = {(b - 1 - x, b - 1 - y) for x, y in graph}
            return [list(e) for e in sorted(graph | reflected)]
        raise KeyError(op)

    def ok(self, query: dict, form) -> bool:
        op = query["op"]
        if isinstance(form, dict):
            return False
        if op in ("find", "seed", "class", "closure"):
            return form == self.expected(query)
        n, b, digits, preimage = parse_seed(query["seed"])
        key = point_key(n, b, len(digits))
        if op == "dihedral":
            return query["seed"] in form and all(
                self._valid_member(key, *parse_seed(s)) for s in form
            )
        if op == "symmetries":
            size = len(digits)
            pairs = list(zip(reversed(digits), reversed(preimage)))
            for mapping in form:
                if sorted(mapping) != list(range(size)):
                    return False
                image = [pairs[mapping[i]] for i in range(size)]
                if image == pairs:
                    return False
                new_digits = tuple(d for d, _ in reversed(image))
                new_preimage = tuple(p for _, p in reversed(image))
                if not self._valid_member(key, n, b, new_digits, new_preimage):
                    return False
            return True
        raise KeyError(op)


def check(queries: list[dict], result: dict, pool: dict[str, list[str]]) -> tuple[int, int, int]:
    """(attempted, failed, result items per pass) of one client run."""
    checker = Checker(pool)
    good = [checker.ok(q, form) for q, form in zip(queries, result["forms"])]
    passes = len(result["latency_ns"])
    failed = 0
    for mismatched in result["mismatched"]:
        bad = set(mismatched)
        failed += sum(1 for i, g in enumerate(good) if not g or i in bad)
    items = sum(
        _items(q["op"], form)
        for q, form in zip(queries, result["forms"])
        if not isinstance(form, dict)
    )
    return len(queries) * passes, failed, items


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        _load(argv[1])
        return 0
    if argv[:1] == ["run"] and len(argv) in (4, 5):
        _run(argv[1], argv[2], float(argv[3]), argv[4] if len(argv) == 5 else None)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
