"""Command-line frontend.

Subcommands cover graph export (mother-graph, hs-graph, hs-multigraph),
search (find, oracle), single-equation verification, the symmetry toolkit
(siblings, class, symmetries, closure), and OEIS b-file cross-checks.

Option values resolve in precedence order: command-line flag, then config
file (``key=value`` lines, keys named like the long flags), then the
``PERMUTIPLE_SCAN_LIMIT`` environment variable (scan limit only), then
built-in defaults.  Exit codes: 0 success, 1 verification or feasibility
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import serialize
from .digits import (
    DigitString,
    Permutation,
    PermutipleRecord,
    canonical_sigma,
    check_multiplier,
    verify_permutiple,
)
from .errors import BFileError, ParameterError, PermutipleError, SeedError
from .graphs import build_mother_graph
from .machine import build_state_graph, build_state_multigraph
from .search import DEFAULT_SCAN_LIMIT, brute_force_oracle, find_permutiples
from .symmetry import (
    ClassSpec,
    apply_symmetry,
    class_reflection_exists,
    dihedral_siblings,
    enumerate_class_members,
    is_symmetric_class,
    reflect_class,
    reflective_siblings,
    rotational_siblings,
    state_sequence,
    symmetric_closure,
    symmetries_fixing_sequence,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    pass


def _str_to_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise _UsageError(f"cannot interpret {value!r} as a boolean")


# config file keys, each with the converter of its value
_CONFIG_KEYS = {
    "multiplier": int,
    "base": int,
    "length": int,
    "allow-leading-zero": _str_to_bool,
    "format": str,
    "output": str,
    "scan-limit": int,
    "seed": str,
}


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _UsageError(f"{path}:{line_no}: expected key=value, got {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in _CONFIG_KEYS:
                    raise _UsageError(f"{path}:{line_no}: unknown key {key!r}")
                values[key] = value
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the config file and the environment."""
    config = _read_config(args.config) if getattr(args, "config", None) else {}
    for key, value in config.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) is None:
            try:
                setattr(args, attr, _CONFIG_KEYS[key](value))
            except ValueError as exc:
                raise _UsageError(f"config key {key}: {exc}") from exc
    if hasattr(args, "scan_limit") and args.scan_limit is None:
        env = os.environ.get("PERMUTIPLE_SCAN_LIMIT")
        if env is not None:
            try:
                args.scan_limit = int(env)
            except ValueError as exc:
                raise _UsageError(f"PERMUTIPLE_SCAN_LIMIT: {exc}") from exc
    return args


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise _UsageError(f"--{name.replace('_', '-')} is required")


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _record_lines(args: argparse.Namespace, records: Sequence[PermutipleRecord]) -> str:
    fmt = args.format or "json"
    if fmt == "json":
        return "".join(serialize.record_to_json(r) + "\n" for r in records)
    if fmt == "text":
        return "".join(serialize.record_to_text(r) + "\n" for r in records)
    raise _UsageError(f"records support formats json and text, not {fmt!r}")


def _seed_record(args: argparse.Namespace) -> PermutipleRecord:
    if args.seed is None:
        raise _UsageError("--seed is required")
    record = serialize.seed_to_record(args.seed, default_base=getattr(args, "base", None))
    if record is None:
        raise PermutipleError(f"seed {args.seed!r} is not a digit-preserving multiplication")
    return record


def _cmd_graph(args: argparse.Namespace) -> int:
    _require(args, "multiplier", "base")
    check_multiplier(args.multiplier, args.base)
    fmt = args.format or "dot"
    # command: builder, DOT name prefix, and the dot, json and text renderers
    build, prefix, to_dot, to_json, to_text = {
        "mother-graph": (build_mother_graph, "mother", serialize.digit_graph_to_dot,
                         serialize.digit_graph_to_json, serialize.digit_graph_to_text),
        "hs-graph": (build_state_graph, "machine", serialize.state_graph_to_dot,
                     serialize.state_graph_to_json, serialize.state_graph_to_text),
        "hs-multigraph": (build_state_multigraph, "machine", serialize.state_multigraph_to_dot,
                          serialize.state_multigraph_to_json, serialize.state_multigraph_to_text),
    }[args.command]
    graph = build(args.multiplier, args.base)
    renderers = {
        "dot": lambda: to_dot(graph, f"{prefix}_{args.multiplier}_{args.base}"),
        "json": lambda: to_json(graph),
        "text": lambda: to_text(graph),
    }
    if fmt not in renderers:
        raise _UsageError(f"unknown format {fmt!r}")
    _emit(args, renderers[fmt]())
    return EXIT_OK


def _cmd_find(args: argparse.Namespace) -> int:
    _require(args, "multiplier", "base", "length")
    check_multiplier(args.multiplier, args.base)
    allow = bool(args.allow_leading_zero)
    results = find_permutiples(args.multiplier, args.base, args.length, allow)
    _emit(args, _record_lines(args, [r.record for r in results]))
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    _require(args, "multiplier", "base", "length")
    check_multiplier(args.multiplier, args.base)
    allow = bool(args.allow_leading_zero)
    limit = args.scan_limit if args.scan_limit is not None else DEFAULT_SCAN_LIMIT
    records = brute_force_oracle(args.multiplier, args.base, args.length, allow, limit)
    _emit(args, _record_lines(args, records))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise _UsageError("--seed is required")
    multiplier, base, lhs, rhs = serialize.parse_seed(
        args.seed, default_base=getattr(args, "base", None)
    )
    digits = DigitString.from_display(base, lhs)
    preimage = DigitString.from_display(base, rhs)
    if args.sigma is not None:
        try:
            mapping = tuple(int(part) for part in args.sigma.split(","))
        except ValueError as exc:
            raise _UsageError(f"--sigma: {exc}") from exc
        if len(mapping) != len(digits):
            raise _UsageError(f"--sigma has {len(mapping)} entries for {len(digits)} digits")
        sigma = Permutation(mapping)
        if tuple(digits.digits[sigma(j)] for j in range(len(digits))) != preimage.digits:
            _emit(args, json.dumps({"verified": False, "reason": "sigma does not map digits onto the preimage"}) + "\n")
            return EXIT_FAILURE
    else:
        sigma = canonical_sigma(digits, preimage)
        if sigma is None:
            _emit(args, json.dumps({"verified": False, "reason": "digit multisets differ"}) + "\n")
            return EXIT_FAILURE
    record = verify_permutiple(digits, sigma, multiplier)
    if record is None:
        _emit(args, json.dumps({"verified": False, "reason": "multiplication is not digit-preserving"}) + "\n")
        return EXIT_FAILURE
    if (args.format or "json") == "text":
        _emit(args, serialize.record_to_text(record) + "\n")
    else:
        _emit(args, serialize.record_to_json(record) + "\n")
    return EXIT_OK


def _cmd_siblings(args: argparse.Namespace) -> int:
    record = _seed_record(args)
    reflective = reflective_siblings(record)
    rotational = rotational_siblings(record)
    dihedral = dihedral_siblings(record)
    payload = {
        "seed": serialize.format_equation(record),
        "carries": list(reversed(record.carries[:-1])),
        "reflective": [
            {"shift": j, "equation": serialize.format_equation(rec)} for j, rec in reflective
        ],
        "rotational": [
            {"shift": j, "equation": serialize.format_equation(rec)} for j, rec in rotational
        ],
        "dihedral": [serialize.format_equation(rec) for rec in dihedral],
    }
    _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _cmd_class(args: argparse.Namespace) -> int:
    record = _seed_record(args)
    allow = True if args.allow_leading_zero is None else bool(args.allow_leading_zero)
    members = enumerate_class_members(record, allow_leading_zero=allow)
    _emit(args, _record_lines(args, members))
    return EXIT_OK


def _cmd_symmetries(args: argparse.Namespace) -> int:
    record = _seed_record(args)
    phis = symmetries_fixing_sequence(record)
    results = []
    for phi in phis:
        image = apply_symmetry(record, phi)
        if image is None:
            raise RuntimeError("transition-fixing permutation failed to produce a permutiple")
        results.append(
            {"mapping": list(phi.mapping), "equation": serialize.format_equation(image)}
        )
    payload = {
        "seed": serialize.format_equation(record),
        "transitions": [list(t) for t in state_sequence(record).transitions],
        "fixing_symmetries": results,
    }
    _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _cmd_closure(args: argparse.Namespace) -> int:
    record = _seed_record(args)
    spec = ClassSpec.from_record(record)
    exists = class_reflection_exists(spec)
    payload = {
        "seed": serialize.format_equation(record),
        "class_edges": [serialize.format_pair(e) for e in spec.graph.sorted_edges],
        "image_states": sorted(spec.images.states),
        "reflection_exists": exists,
        "symmetric": is_symmetric_class(spec),
    }
    if exists:
        reflected = reflect_class(spec)
        closure = symmetric_closure(spec)
        payload["reflected_edges"] = [
            serialize.format_pair(e) for e in reflected.graph.sorted_edges
        ]
        payload["closure_edges"] = [
            serialize.format_pair(e) for e in closure.graph.sorted_edges
        ]
        payload["closure_symmetric"] = is_symmetric_class(closure)
    _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if exists else EXIT_FAILURE


def _cmd_oeis_check(args: argparse.Namespace) -> int:
    _require(args, "multiplier", "base", "length")
    check_multiplier(args.multiplier, args.base)
    try:
        with open(args.bfile, encoding="utf-8") as handle:
            entries = serialize.parse_bfile(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read b-file {args.bfile}: {exc}") from exc
    report = oeis_report(entries, args.multiplier, args.base, args.length)
    _emit(args, json.dumps(report, sort_keys=True, indent=2) + "\n")
    clean = not report["misses"] and not report["extras"]
    return EXIT_OK if clean else EXIT_FAILURE


def oeis_report(
    entries: Sequence[tuple[int, int]], multiplier: int, base: int, max_length: int
) -> dict:
    """Compare multiplier * b-file values against fully canonical permutiples.

    The comparison set excludes equations with a leading zero on either
    side, matching sequences that list multiplicands whose standard
    representation is an anagram of the product's.  Misses are derived
    values our enumeration should have found (within its length bound);
    extras are our values inside the b-file's coverage that it lacks.
    """
    derived = sorted(multiplier * value for _, value in entries)
    ours: set[int] = set()
    for length in range(1, max_length + 1):
        for result in find_permutiples(multiplier, base, length, allow_leading_zero=False):
            if result.record.preimage.canonical:
                ours.add(result.record.value())
    our_limit = base**max_length - 1
    derived_limit = max(derived) if derived else -1
    derived_set = set(derived)
    matches = sorted(derived_set & ours)
    misses = sorted(v for v in derived if v <= our_limit and v not in ours)
    extras = sorted(v for v in ours if v <= derived_limit and v not in derived_set)
    return {
        "multiplier": multiplier,
        "base": base,
        "max_length": max_length,
        "entries": len(entries),
        "matches": matches,
        "misses": misses,
        "extras": extras,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permutiple",
        description="Search and classify digit-preserving multiplications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, seed: bool = False, search: bool = False) -> None:
        p.add_argument("--config", help="key=value config file; flags win")
        p.add_argument("--multiplier", "-n", type=int, default=None)
        p.add_argument("--base", "-b", type=int, default=None)
        p.add_argument("--format", choices=("dot", "json", "text"), default=None)
        p.add_argument("--output", "-o", default=None, help="write here instead of stdout")
        if seed:
            p.add_argument("--seed", default=None, help="equation seed, e.g. 4x10:87912=4*21978")
        if search:
            p.add_argument("--length", "-k", type=int, default=None, help="digit count")
            p.add_argument(
                "--allow-leading-zero",
                action=argparse.BooleanOptionalAction,
                default=None,
                help="include digit strings led by zero",
            )
            p.add_argument("--scan-limit", type=int, default=None)

    for name in ("mother-graph", "hs-graph", "hs-multigraph"):
        p = sub.add_parser(name, help=f"export the {name.replace('-', ' ')}")
        common(p)
        p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("find", help="enumerate permutiples via the machine")
    common(p, search=True)
    p.set_defaults(handler=_cmd_find)

    p = sub.add_parser("oracle", help="enumerate permutiples by exhaustive scan")
    common(p, search=True)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("verify", help="verify one equation")
    common(p, seed=True)
    p.add_argument("--sigma", default=None, help="comma-separated sigma(0..k)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("siblings", help="dihedral siblings of a seed")
    common(p, seed=True)
    p.set_defaults(handler=_cmd_siblings)

    p = sub.add_parser("class", help="all class members with the seed's digits")
    common(p, seed=True, search=True)
    p.set_defaults(handler=_cmd_class)

    p = sub.add_parser("symmetries", help="transition-fixing symmetries of a seed")
    common(p, seed=True)
    p.set_defaults(handler=_cmd_symmetries)

    p = sub.add_parser("closure", help="class reflection and symmetric closure")
    common(p, seed=True)
    p.set_defaults(handler=_cmd_closure)

    p = sub.add_parser("oeis-check", help="cross-check a b-file of multiplicands")
    common(p, search=True)
    p.add_argument("--bfile", required=True, help="local b-file path")
    p.set_defaults(handler=_cmd_oeis_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _resolve(args)
        return args.handler(args)
    except (_UsageError, SeedError, BFileError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PermutipleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
