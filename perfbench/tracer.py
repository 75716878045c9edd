"""Per-layer tracer for the permutiple benchmark.

Before the program runs, :meth:`Tracer.install` replaces the public
functions listed in ``TARGETS`` in every ``permutiple.*`` namespace that
binds them (``eulerian_strings`` is bound in ``search``, ``symmetry`` and
the package, for example).  Coarse calls record a span (name, start, end,
parent span, job id); hot, fine-grained calls only add to per-function
counters.  Both kinds keep a call stack, so every function's self time is
its duration minus the time its traced children cover.  Spans stay in
memory and are written with the counters when the run ends.

Run one CLI job under the tracer (stdout is the job's own output)::

    PYTHONPATH=src python perfbench/tracer.py OUT.json JOB_ID -- find -n 4 -b 10 -k 5

The rest of this module turns merged dumps into the benchmark's per-layer
metrics and the self-time share table; that part imports nothing from the
program.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("digits", "graphs", "machine", "search", "symmetry", "serialize", "cli")

SPAN, HOT = "span", "hot"


def _size(key):
    return lambda arguments, result: {key: len(result)}


def _oracle_counts(arguments, result):
    n, b, k = arguments["multiplier"], arguments["base"], arguments["length"]
    return {"search.oracle_candidates": (b**k - 1) // n + 1, "search.oracle_hits": len(result)}


# (module, attribute, kind, counter hook).  The metric name of a target is
# "<module>.<last attribute part>".  A hook maps the call's bound arguments
# and its result to counter increments.
TARGETS = (
    ("digits", "DigitString.from_int", HOT, None),
    ("digits", "DigitString.multiset", HOT, None),
    ("digits", "canonical_sigma", HOT, None),
    ("digits", "verify_permutiple", HOT, None),
    ("graphs", "build_mother_graph", SPAN, None),
    ("graphs", "enumerate_cycles", SPAN, _size("graphs.cycles")),
    ("graphs", "graph_of_permutiple", HOT, None),
    ("machine", "walk_states", HOT, None),
    ("machine", "cycle_image", HOT, None),
    ("machine", "union_images", HOT, None),
    ("search", "CycleMultiset.from_counts", HOT, None),
    ("search", "check_feasible", HOT, None),
    ("search", "feasible_unions", SPAN, _size("search.feasible_unions.found")),
    ("search", "eulerian_strings", SPAN, _size("search.strings")),
    ("search", "string_to_permutiple", HOT, None),
    ("search", "decompose_into_cycles", HOT, None),
    ("search", "find_permutiples", SPAN, None),
    ("search", "brute_force_oracle", SPAN, _oracle_counts),
    ("symmetry", "ClassSpec.from_record", SPAN, None),
    ("symmetry", "enumerate_class_members", SPAN, None),
    ("symmetry", "class_unions", SPAN, _size("symmetry.class_unions.found")),
    ("symmetry", "symmetries_fixing_sequence", SPAN, None),
    ("symmetry", "dihedral_siblings", SPAN, None),
    ("symmetry", "symmetric_closure", SPAN, None),
    ("symmetry", "apply_symmetry", HOT, None),
    ("serialize", "record_to_json", HOT, None),
    ("serialize", "record_to_text", HOT, None),
    ("serialize", "seed_to_record", HOT, None),
    ("serialize", "parse_bfile", SPAN, None),
    ("cli", "oeis_report", SPAN, None),
    ("cli", "main", SPAN, None),
)


def metric_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute.rsplit('.', 1)[-1]}"


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self) -> None:
        self.job = 0
        self.spans: list[tuple] = []
        self.agg: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.ctx: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list[int]] = []
        self._span = (0, "")
        self._next_id = 1
        self._caches: list = []
        self._cache_start = (0, 0)

    def wrap(self, fn, name: str, kind: str, hook=None):
        """``fn`` with its calls timed (and for SPAN, recorded) as ``name``."""
        stack, agg, ctx, spans, counters = self._stack, self.agg, self.ctx, self.spans, self.counters
        clock = time.perf_counter_ns
        is_span = kind == SPAN
        tracer = self
        signature = inspect.signature(fn) if hook is not None else None

        def traced(*args, **kwargs):
            parent = tracer._span
            if is_span:
                span_id = tracer._next_id
                tracer._next_id += 1
                tracer._span = (span_id, name)
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                entry = agg[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                ctx[(name, parent[1])] += 1
                if is_span:
                    spans.append((span_id, name, start, end, parent[0], tracer.job, duration - frame[0]))
                    tracer._span = parent
            if hook is not None:
                try:
                    arguments = signature.bind(*args, **kwargs).arguments
                    increments = hook(arguments, result)
                except (KeyError, TypeError):  # the program changed shape; count nothing
                    increments = {}
                for key, value in increments.items():
                    counters[key] += value
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded ``permutiple`` namespace."""
        import importlib

        modules = {m: importlib.import_module(f"permutiple.{m}") for m in MODULES}
        namespaces = [mod for key, mod in sorted(sys.modules.items()) if key.split(".")[0] == "permutiple"]
        for namespace in namespaces:
            for value in vars(namespace).values():
                if callable(getattr(value, "cache_info", None)) and value not in self._caches:
                    self._caches.append(value)
        self._cache_start = self._cache_totals()
        for module, attribute, kind, hook in TARGETS:
            name = metric_name(module, attribute)
            owner_name, _, attr = attribute.rpartition(".")
            owner = getattr(modules[module], owner_name, None) if owner_name else modules[module]
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            if owner_name:
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, kind, hook)))
                else:
                    setattr(owner, attr, self.wrap(raw, name, kind, hook))
                continue
            wrapper = self.wrap(raw, name, kind, hook)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is raw:
                        setattr(namespace, key, wrapper)

    def _cache_totals(self) -> tuple[int, int]:
        hits = misses = 0
        for cached in self._caches:
            info = cached.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    def dump(self, path: str) -> None:
        hits, misses = self._cache_totals()
        payload = {
            "agg": dict(self.agg),
            "ctx": [[name, parent, calls] for (name, parent), calls in self.ctx.items()],
            "counters": dict(self.counters),
            "cache": [hits - self._cache_start[0], misses - self._cache_start[1]],
            "spans": self.spans,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# ------------------------------------------------------------- aggregation

# Per-layer metrics: name, unit, better.  Each moves an end-to-end metric
# on one workload (see ROUTES).
PER_LAYER = (
    ("graphs.enumerate_cycles.self_s", "s", "lower"),
    ("graphs.cycles", "count", "lower"),
    ("search.feasible_unions.self_s", "s", "lower"),
    ("search.multisets_tried", "count", "lower"),
    ("search.check_feasible.calls", "count", "lower"),
    ("search.feasible_ratio", "ratio", "higher"),
    ("search.eulerian_strings.self_s", "s", "lower"),
    ("search.strings", "count", "lower"),
    ("search.string_to_permutiple.self_s", "s", "lower"),
    ("search.string_to_permutiple.calls", "count", "lower"),
    ("search.decompose_into_cycles.self_s", "s", "lower"),
    ("search.brute_force_oracle.self_s", "s", "lower"),
    ("search.oracle_candidates", "count", "lower"),
    ("search.oracle_hit_ratio", "ratio", "higher"),
    ("search.cache_hits", "count", "higher"),
    ("search.cache_misses", "count", "lower"),
    ("machine.walk_states.self_s", "s", "lower"),
    ("digits.verify_permutiple.self_s", "s", "lower"),
    ("digits.verify_permutiple.calls", "count", "lower"),
    ("digits.canonical_sigma.self_s", "s", "lower"),
    ("digits.canonical_sigma.calls", "count", "lower"),
    ("digits.from_int.calls", "count", "lower"),
    ("symmetry.enumerate_class_members.self_s", "s", "lower"),
    ("symmetry.class_unions.self_s", "s", "lower"),
    ("symmetry.class_feasible_ratio", "ratio", "higher"),
    ("symmetry.symmetries_fixing_sequence.self_s", "s", "lower"),
    ("symmetry.dihedral_siblings.self_s", "s", "lower"),
    ("serialize.record_to_json.self_s", "s", "lower"),
    ("serialize.record_to_text.self_s", "s", "lower"),
    ("serialize.stdout_bytes", "bytes", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
    *((f"layer.{m}.self_s", "s", "lower") for m in MODULES),
    *((f"layer.{m}.share", "ratio", "lower") for m in MODULES),
)

# Which end-to-end metric each layer metric should move, and where.
ROUTES = (
    ("graphs.enumerate_cycles.self_s, graphs.cycles", "wall_s", "find-sparse"),
    ("search.feasible_unions.self_s, search.multisets_tried, search.check_feasible.calls, "
     "search.feasible_ratio", "wall_s", "find-sparse"),
    ("search.eulerian_strings.self_s, search.strings, search.string_to_permutiple.*, "
     "search.decompose_into_cycles.self_s, machine.walk_states.self_s", "records_per_s", "find-dense"),
    ("search.brute_force_oracle.self_s, search.oracle_candidates, search.oracle_hit_ratio",
     "wall_s", "oracle-scan"),
    ("search.cache_hits, search.cache_misses", "query_p50_ms", "class-session"),
    ("digits.*", "wall_s / records_per_s", "oracle-scan / find-dense"),
    ("symmetry.enumerate_class_members.self_s, symmetry.class_unions.self_s, "
     "symmetry.class_feasible_ratio", "query_p95_ms", "class-session"),
    ("symmetry.symmetries_fixing_sequence.self_s, symmetry.dihedral_siblings.self_s",
     "query_p50_ms", "class-session"),
    ("serialize.*", "records_per_s", "find-dense"),
    ("cli.main.self_s", "setup_s / wall_s", "every CLI workload / find-dense"),
)


def merge(dumps: list[dict]) -> dict:
    """Sum the counters of several traced processes; concatenate spans."""
    agg: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    ctx: dict[tuple[str, str], int] = defaultdict(int)
    counters: dict[str, int] = defaultdict(int)
    cache = [0, 0]
    spans: list = []
    missing: set[str] = set()
    for dump in dumps:
        for name, values in dump["agg"].items():
            entry = agg[name]
            for i in range(3):
                entry[i] += values[i]
        for name, parent, calls in dump["ctx"]:
            ctx[(name, parent)] += calls
        for name, value in dump["counters"].items():
            counters[name] += value
        cache[0] += dump["cache"][0]
        cache[1] += dump["cache"][1]
        spans.extend(dump["spans"])
        missing.update(dump["missing"])
    return {"agg": agg, "ctx": ctx, "counters": counters, "cache": cache, "spans": spans,
            "missing": sorted(missing)}


def in_program_s(merged: dict) -> float:
    """Time inside root spans: everything the tracer saw."""
    return sum(s[3] - s[2] for s in merged["spans"] if s[4] == 0) / 1e9


def module_self_s(merged: dict) -> dict[str, float]:
    totals = {m: 0.0 for m in MODULES}
    for name, (_, _, self_ns) in merged["agg"].items():
        module = name.split(".")[0]
        if module in totals:
            totals[module] += self_ns / 1e9
    return totals


def layer_metrics(merged: dict, overhead_ratio: float, stdout_bytes: int) -> dict[str, float]:
    agg, ctx, counters = merged["agg"], merged["ctx"], merged["counters"]

    def self_s(name: str) -> float:
        return agg[name][2] / 1e9 if name in agg else 0.0

    def calls(name: str) -> int:
        return agg[name][0] if name in agg else 0

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    tried = ctx.get(("search.from_counts", "search.feasible_unions"), 0)
    class_tried = ctx.get(("search.from_counts", "symmetry.class_unions"), 0)
    values: dict[str, float] = {
        "graphs.cycles": counters.get("graphs.cycles", 0),
        "search.multisets_tried": tried,
        "search.check_feasible.calls": calls("search.check_feasible"),
        "search.feasible_ratio": ratio(counters.get("search.feasible_unions.found", 0), tried),
        "search.strings": counters.get("search.strings", 0),
        "search.string_to_permutiple.calls": calls("search.string_to_permutiple"),
        "search.oracle_candidates": counters.get("search.oracle_candidates", 0),
        "search.oracle_hit_ratio": ratio(
            counters.get("search.oracle_hits", 0), counters.get("search.oracle_candidates", 0)
        ),
        "search.cache_hits": merged["cache"][0],
        "search.cache_misses": merged["cache"][1],
        "digits.verify_permutiple.calls": calls("digits.verify_permutiple"),
        "digits.canonical_sigma.calls": calls("digits.canonical_sigma"),
        "digits.from_int.calls": calls("digits.from_int"),
        "symmetry.class_feasible_ratio": ratio(
            counters.get("symmetry.class_unions.found", 0), class_tried
        ),
        "serialize.stdout_bytes": stdout_bytes,
        "trace_overhead_ratio": overhead_ratio,
    }
    total = in_program_s(merged)
    for module, seconds in module_self_s(merged).items():
        values[f"layer.{module}.self_s"] = seconds
        values[f"layer.{module}.share"] = ratio(seconds, total)
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_s") and name not in values:
            values[name] = self_s(name[: -len(".self_s")])
    return {name: values[name] for name, _, _ in PER_LAYER}


def share_table(merged: dict, process_wall_s: float, top: int = 12) -> list[str]:
    """Self-time shares by module and by function, as printable lines."""
    total = in_program_s(merged)
    lines = [f"self time by module (share of {total:.3f} s in the program; "
             f"{max(process_wall_s - total, 0.0):.3f} s more in process start-up and import)"]
    for module, seconds in sorted(module_self_s(merged).items(), key=lambda kv: -kv[1]):
        lines.append(f"  {module:<10} {seconds:9.4f} s  {100 * seconds / total if total else 0:6.2f} %")
    lines.append(f"top {top} functions by self time (calls, self s, share)")
    ranked = sorted(merged["agg"].items(), key=lambda kv: -kv[1][2])[:top]
    for name, (count, _, self_ns) in ranked:
        share = 100 * self_ns / 1e9 / total if total else 0.0
        lines.append(f"  {name:<38} {count:9d} {self_ns / 1e9:9.4f} s {share:6.2f} %")
    if merged["missing"]:
        lines.append(f"  not traced (absent from the program): {', '.join(merged['missing'])}")
    return lines


def main(argv: list[str]) -> int:
    out_path, job = argv[0], int(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: tracer.py OUT JOB_ID -- CLI-ARGS...")
    import permutiple.cli

    tracer = Tracer()
    tracer.install()
    tracer.job = job
    try:
        return permutiple.cli.main(argv[3:])
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
