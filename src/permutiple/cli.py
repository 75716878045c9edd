"""Command-line frontend.

Subcommands cover graph export (mother-graph, hs-graph, hs-multigraph),
search (find, oracle), single-equation verification, the symmetry toolkit
(siblings, class, symmetries, closure), and OEIS b-file cross-checks.

One table, ``_COMMANDS``, names each command's handler, help text, output
formats and the options its handler reads; the parser accepts exactly
those, plus ``--config`` everywhere.  ``_OPTIONS`` holds each option's
flags, argparse settings, config-file converter, default and environment
variable.  Values resolve in precedence order: command-line flag, then
config file (``key=value`` lines, keys named like the long flags; keys for
options a command does not read are skipped), then the environment
(``PERMUTIPLE_SCAN_LIMIT`` for ``oracle --scan-limit``), then the default;
a command's first format is its default.  Exit codes: 0 success (and
``--help``), 1 verification or feasibility failure, a refused scan, an I/O
error or a failed internal check (:class:`InvariantError`), 2 usage error;
:func:`main` returns them, argparse's own included.  A stdout closed by its
reader (``find ... | head -1``) ends the command with 1 and nothing on
stderr.  Output is written as it is made; ``--output`` is replaced whole
through a sibling temporary file.  Every permutiple line is written from a
record by :func:`serialize.record_to_json` or :func:`serialize.record_to_text`.

:func:`main` reads a plain command line (a command, then exact flags of
its options, each with its value) from that table itself, into the
namespace argparse would build, so such a run never imports ``argparse``.
Any other line goes to argparse, which alone prints help, usage lines and
errors.  A process runs one command, so :func:`main` then builds the parser
of the command that the first argument names, alone; with no command first
(no arguments, ``-h``, an unknown name) it builds every command's, as
:func:`build_parser` does by default.  Both print the same usage lines, help
and errors.  The handlers import the graph, machine and symmetry layers
themselves, so ``find`` and ``oracle`` load none of them.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, Sequence

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
from .search import DEFAULT_SCAN_LIMIT, brute_force_oracle, walk_records

if TYPE_CHECKING:
    import argparse

    Args = argparse.Namespace | SimpleNamespace  # handlers get and set attributes only

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    pass


class _StdoutClosed(Exception):
    """The reader of stdout went away; the command ends quietly."""


def _str_to_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise ValueError(f"cannot interpret {value!r} as a boolean")


_REQUIRED = object()  # the default of an option that must be given


class _Option(NamedTuple):
    flags: tuple[str, ...]
    settings: dict[str, Any]  # argparse keyword arguments, "action": "bool" for --[no-]flag
    convert: Callable[[str], Any] | None = None  # config-file converter; None: no config key
    default: Any = None
    env: str | None = None  # environment variable read after the config file


_OPTIONS = {
    "config": _Option(("--config",), {"help": "key=value config file; flags win"}),
    "multiplier": _Option(("--multiplier", "-n"), {"type": int}, int, _REQUIRED),
    "base": _Option(("--base", "-b"), {"type": int}, int, _REQUIRED),
    "length": _Option(("--length", "-k"), {"type": int, "help": "digit count"}, int, _REQUIRED),
    "allow-leading-zero": _Option(
        ("--allow-leading-zero",),
        {"action": "bool", "help": "include digit strings led by zero"},
        _str_to_bool,
        False,
    ),
    "format": _Option(("--format",), {}, str),
    "output": _Option(("--output", "-o"), {"help": "write here instead of stdout"}, str),
    "scan-limit": _Option(
        ("--scan-limit",), {"type": int}, int, DEFAULT_SCAN_LIMIT, "PERMUTIPLE_SCAN_LIMIT"
    ),
    "seed": _Option(
        ("--seed",), {"help": "equation seed, e.g. 4x10:87912=4*21978"}, str, _REQUIRED
    ),
    "sigma": _Option(("--sigma",), {"help": "comma-separated sigma(0..k)"}),
    "bfile": _Option(("--bfile",), {"required": True, "help": "local b-file path"}),
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
                if key not in _OPTIONS or _OPTIONS[key].convert is None:
                    raise _UsageError(f"{path}:{line_no}: unknown key {key!r}")
                values[key] = value
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve(args: Args) -> Args:
    """Fill unset options from the config file, the environment and the defaults."""
    command = _COMMANDS[args.command]
    config = _read_config(args.config) if args.config else {}
    for name in command.reads():
        option, attr = _OPTIONS[name], name.replace("-", "_")
        if getattr(args, attr) is not None:
            continue
        if name in config:
            source, value = f"config key {name}", config[name]
        elif option.env is not None and option.env in os.environ:
            source, value = option.env, os.environ[option.env]
        else:
            default = command.default(name)
            if default is _REQUIRED:
                raise _UsageError(f"--{name} is required")
            setattr(args, attr, default)
            continue
        try:
            setattr(args, attr, option.convert(value))
        except ValueError as exc:
            raise _UsageError(f"{source}: {exc}") from exc
    if command.formats and args.format not in command.formats:
        formats = ", ".join(command.formats)
        raise _UsageError(f"{args.command} supports formats {formats}, not {args.format!r}")
    return args


def _emit(args: Args, lines: Iterable[str]) -> None:
    """Write ``lines`` to stdout or to ``--output`` as they come.

    A regular file (through any symlinks) is replaced whole by renaming a
    sibling temporary file over it, so a failure leaves it as it was; a
    pipe or device such as ``/dev/null`` is written in place.
    """
    if not args.output:
        try:
            sys.stdout.writelines(lines)
            sys.stdout.flush()
        except BrokenPipeError:
            # Point stdout at /dev/null so the flush at shutdown cannot
            # raise again (the SIGPIPE note of the ``signal`` docs).
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise _StdoutClosed from None
        return
    path = os.path.realpath(args.output)
    in_place = os.path.exists(path) and not os.path.isfile(path)
    temp = path if in_place else f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
        if not in_place:
            os.replace(temp, path)
    except BaseException:
        if not in_place:
            try:
                os.remove(temp)
            except OSError:
                pass
        raise


def _record_lines(args: Args, records: Iterable[PermutipleRecord]) -> Iterable[str]:
    render = serialize.record_to_text if args.format == "text" else serialize.record_to_json
    return (render(r) + "\n" for r in records)


def _seed_record(args: Args) -> PermutipleRecord:
    record = serialize.seed_to_record(args.seed, default_base=args.base)
    if record is None:
        raise PermutipleError(f"seed {args.seed!r} is not a digit-preserving multiplication")
    return record


def _cmd_graph(args: Args) -> int:
    from .graphs import build_mother_graph
    from .machine import build_state_graph, build_state_multigraph

    # command: builder and DOT name prefix
    build, prefix = {
        "mother-graph": (build_mother_graph, "mother"),
        "hs-graph": (build_state_graph, "machine"),
        "hs-multigraph": (build_state_multigraph, "machine"),
    }[args.command]
    graph = build(args.multiplier, args.base)
    if args.format == "dot":
        text = serialize.graph_to_dot(graph, f"{prefix}_{args.multiplier}_{args.base}")
    elif args.format == "json":
        text = serialize.graph_to_json(graph)
    else:
        text = serialize.graph_to_text(graph)
    _emit(args, [text])
    return EXIT_OK


def _cmd_find(args: Args) -> int:
    n, b, k = args.multiplier, args.base, args.length
    records = walk_records(n, b, k, allow_leading_zero=args.allow_leading_zero)
    _emit(args, _record_lines(args, records))
    return EXIT_OK


def _cmd_oracle(args: Args) -> int:
    records = brute_force_oracle(
        args.multiplier, args.base, args.length, args.allow_leading_zero, args.scan_limit
    )
    _emit(args, _record_lines(args, records))
    return EXIT_OK


def _not_verified(args: Args, reason: str) -> int:
    import json

    _emit(args, [json.dumps({"verified": False, "reason": reason}) + "\n"])
    return EXIT_FAILURE


def _cmd_verify(args: Args) -> int:
    multiplier, base, lhs, rhs = serialize.parse_seed(args.seed, default_base=args.base)
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
            return _not_verified(args, "sigma does not map digits onto the preimage")
    else:
        sigma = canonical_sigma(digits, preimage)
        if sigma is None:
            return _not_verified(args, "digit multisets differ")
    record = verify_permutiple(digits, sigma, multiplier)
    if record is None:
        return _not_verified(args, "multiplication is not digit-preserving")
    _emit(args, _record_lines(args, [record]))
    return EXIT_OK


def _cmd_siblings(args: Args) -> int:
    from .symmetry import dihedral_siblings, reflective_siblings, rotational_siblings

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
    _emit(args, [serialize._json_dump(payload)])
    return EXIT_OK


def _cmd_class(args: Args) -> int:
    from .symmetry import enumerate_class_members

    record = _seed_record(args)
    members = enumerate_class_members(record, allow_leading_zero=args.allow_leading_zero)
    _emit(args, _record_lines(args, members))
    return EXIT_OK


def _cmd_symmetries(args: Args) -> int:
    from .symmetry import _fixing_images, state_sequence

    record = _seed_record(args)
    payload = {
        "seed": serialize.format_equation(record),
        "transitions": [list(t) for t in state_sequence(record).transitions],
        "fixing_symmetries": [
            {"mapping": list(phi.mapping), "equation": serialize.format_equation(image)}
            for phi, image in _fixing_images(record)
        ],
    }
    _emit(args, [serialize._json_dump(payload)])
    return EXIT_OK


def _cmd_closure(args: Args) -> int:
    from .symmetry import (
        ClassSpec,
        class_reflection_exists,
        is_symmetric_class,
        reflect_class,
        symmetric_closure,
    )

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
    _emit(args, [serialize._json_dump(payload)])
    return EXIT_OK if exists else EXIT_FAILURE


def _cmd_oeis_check(args: Args) -> int:
    check_multiplier(args.multiplier, args.base)
    try:
        with open(args.bfile, encoding="utf-8") as handle:
            entries = serialize.parse_bfile(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read b-file {args.bfile}: {exc}") from exc
    report = oeis_report(entries, args.multiplier, args.base, args.length)
    _emit(args, [serialize._json_dump(report)])
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
    Values are those of the kernel's proved records from one walk of
    ``max_length`` digits, where a zero-led walk is a shorter one with
    zeros on top, kept when its preimage is canonical at that length.  A
    ``max_length`` below 1 raises :class:`ParameterError`.
    """
    derived = sorted(multiplier * value for _, value in entries)
    records = walk_records(multiplier, base, max_length)
    ours = {r.value() for r in records if next((p for d, p in reversed(r.string) if d), 0)}
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


class _Command(NamedTuple):
    handler: Callable[[Args], int]
    help: str
    formats: tuple[str, ...]  # the first is the default; none: always JSON
    options: tuple[str, ...]  # besides --config and --format
    defaults: dict[str, Any] = {}  # where they differ from the option's own

    def reads(self) -> tuple[str, ...]:
        return self.options + (("format",) if self.formats else ())

    def default(self, name: str) -> Any:
        if name == "format":
            return self.formats[0]
        return self.defaults.get(name, _OPTIONS[name].default)


_GRAPH = ("dot", "json", "text")
_RECORDS = ("json", "text")
_SEARCH = ("multiplier", "base", "length", "allow-leading-zero", "output")
_SEED = ("seed", "base", "output")
_SEED_BASE = {"base": None}  # -b is only the base of seeds without an NxB: prefix

_COMMANDS = {
    **{
        name: _Command(_cmd_graph, f"export the {name.replace('-', ' ')}", _GRAPH,
                       ("multiplier", "base", "output"))
        for name in ("mother-graph", "hs-graph", "hs-multigraph")
    },
    "find": _Command(_cmd_find, "enumerate permutiples via the machine", _RECORDS, _SEARCH),
    "oracle": _Command(_cmd_oracle, "enumerate permutiples by exhaustive scan", _RECORDS,
                       _SEARCH + ("scan-limit",)),
    "verify": _Command(_cmd_verify, "verify one equation", _RECORDS, _SEED + ("sigma",),
                       _SEED_BASE),
    "siblings": _Command(_cmd_siblings, "dihedral siblings of a seed", (), _SEED, _SEED_BASE),
    "class": _Command(_cmd_class, "all class members with the seed's digits", _RECORDS,
                      _SEED + ("allow-leading-zero",),
                      {**_SEED_BASE, "allow-leading-zero": True}),
    "symmetries": _Command(_cmd_symmetries, "transition-fixing symmetries of a seed", (), _SEED,
                           _SEED_BASE),
    "closure": _Command(_cmd_closure, "class reflection and symmetric closure", (), _SEED,
                        _SEED_BASE),
    "oeis-check": _Command(_cmd_oeis_check, "cross-check a b-file of multiplicands", (),
                           ("multiplier", "base", "length", "output", "bfile")),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone.

    The one-command parser still lists every command in its usage line,
    which it prints for an unrecognized trailing argument.  The full parser
    leaves that metavar to argparse, whose errors then name the argument
    ``command``.  An option whose settings say ``"action": "bool"`` gets
    :class:`argparse.BooleanOptionalAction`, so ``--no-`` forms exist.
    ``argparse`` is imported here, on the first call, so that a plain
    command line, which :func:`main` reads without a parser, never loads it.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="permutiple",
        description="Search and classify digit-preserving multiplications.",
    )
    metavar = {} if command is None else {"metavar": "{" + ",".join(_COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **metavar)
    for name in _COMMANDS if command is None else (command,):
        spec = _COMMANDS[name]
        p = sub.add_parser(name, help=spec.help)
        for option in ("config",) + spec.reads():
            flags, settings = _OPTIONS[option][:2]
            if option == "format":
                settings = {**settings, "choices": spec.formats}
            if settings.get("action") == "bool":
                settings = {**settings, "action": argparse.BooleanOptionalAction}
            p.add_argument(*flags, **settings)
    return parser


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser(argv[0]).parse_args(argv)`` gives a plain
    command line, or None for any other line; it never prints or raises.

    A plain line is a command, then exact flags of that command's options:
    ``--[no-]allow-leading-zero`` alone, every other flag with a value that
    does not start with ``-`` and that the option's ``type`` and the
    command's formats accept; argparse's required options are all given.  A
    repeated flag keeps its last value, as argparse's does.  Anything else
    (``-h``, ``--``, abbreviations, ``--flag=value``, ``-n4``, unknown tokens,
    every error) is left to argparse, which alone prints help, usage and
    errors.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = _COMMANDS[argv[0]]
    values: dict[str, Any] = {"command": argv[0]}
    flags: dict[str, tuple[str, _Option]] = {}  # flag: attribute, option
    for name in ("config",) + command.reads():
        option, attr = _OPTIONS[name], name.replace("-", "_")
        values[attr] = None
        for flag in option.flags:
            flags[flag] = attr, option
            if option.settings.get("action") == "bool":
                flags["--no-" + flag[2:]] = attr, option
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in flags:
            return None
        attr, option = flags[token]
        if option.settings.get("action") == "bool":
            values[attr] = not token.startswith("--no-")
            continue
        value = next(tokens, "-")  # a missing value is refused as a flag would be
        if value.startswith("-"):
            return None
        try:
            values[attr] = option.settings.get("type", str)(value)
        except ValueError:
            return None
        if attr == "format" and value not in command.formats:
            return None
    for attr, option in flags.values():
        if option.settings.get("required") and values[attr] is None:
            return None
    return SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command ``argv`` names and return its exit code.

    A plain command line is read by :func:`_plain_args` from the option
    table; any other line goes to argparse, with only the named command's
    parser, since a process runs one command.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        try:
            args = build_parser(command).parse_args(argv)
        except SystemExit as exc:  # argparse's usage errors (2) and --help (0)
            return int(exc.code or 0)
    try:
        args = _resolve(args)
        return _COMMANDS[args.command].handler(args)
    except (_UsageError, SeedError, BFileError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PermutipleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except _StdoutClosed:
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
