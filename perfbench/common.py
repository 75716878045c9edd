"""Shared pieces of the permutiple benchmark: paths, workload definitions,
the child-process job runner, golden data, and arithmetic record checks
that do not use the program under test."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
GOLDEN_PATH = DATA / "golden.json"
POOL_PATH = DATA / "pool.json"
BFILE = "perfbench/data/b_3x4_k9.txt"
OUT = ROOT / ".perfbench_out"

JOB_TIMEOUT_S = 90.0

# Children see only the checkout's sources, so an installed copy of the
# package elsewhere can never be measured by mistake.
CHILD_ENV = {
    key: value for key, value in os.environ.items() if not key.startswith("PYTHON")
}
CHILD_ENV["PYTHONPATH"] = str(SRC)


def _job(text: str) -> tuple[str, ...]:
    return tuple(text.split())


# Every workload is a closed loop with one client: the next job starts only
# after the previous one has exited, and at most one worker process runs.
# Jobs take 0.15-0.35 s each (2-vCPU Xeon virtual machine), so that a 30 s
# run times each of them some 25 times: on a shared host a job of a second
# or more is rarely spared a slow spell, and its fastest time then moves
# with the host.
CLI_WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # Large cycle inventories, few feasible unions: union search dominates.
    "find-sparse": (
        _job("find -n 9 -b 10 -k 4"),
        _job("find -n 7 -b 10 -k 4"),
        _job("find -n 4 -b 12 -k 5"),
        _job("find -n 5 -b 12 -k 5"),
    ),
    # Small inventories, large output: materialisation and serialisation.
    "find-dense": (
        _job("find -n 2 -b 10 -k 7 --allow-leading-zero"),
        _job("find -n 2 -b 9 -k 7 --allow-leading-zero --format text"),
        _job("find -n 2 -b 12 -k 6 --allow-leading-zero"),
        _job(f"oeis-check -n 3 -b 4 -k 7 --bfile {BFILE}"),
    ),
    # The integer scan: digit-string work, no graphs or machine.
    "oracle-scan": (
        _job("oracle -n 4 -b 10 -k 5"),
        _job("oracle -n 3 -b 4 -k 8"),
        _job("oracle -n 11 -b 12 -k 5"),
        _job("oracle -n 7 -b 12 -k 5"),
    ),
}

SESSION_WORKLOAD = "class-session"
WORKLOADS = (*CLI_WORKLOADS, SESSION_WORKLOAD)

# A tiny grid for the benchmark's own tests: one job of each command.
SMOKE_JOBS: tuple[tuple[str, ...], ...] = (
    _job("find -n 4 -b 10 -k 5"),
    _job("find -n 3 -b 4 -k 6 --allow-leading-zero --format text"),
    _job("oracle -n 4 -b 10 -k 5"),
)

# Grid points whose full (leading zeros allowed) record sets are kept as
# data: class-session draws its seeds from the first group and re-reads
# the second through the library's cached search.
SEED_POINTS = ((4, 10, 7), (3, 10, 7), (2, 10, 7), (5, 12, 6), (3, 4, 8))
FIND_POINTS = ((4, 10, 5), (3, 10, 5), (2, 10, 6), (5, 12, 4), (3, 4, 6))


def job_key(argv: tuple[str, ...] | list[str]) -> str:
    return " ".join(argv)


def job_params(argv: tuple[str, ...]) -> tuple[str, int, int, int]:
    """(command, n, b, k) of a job's argument list."""
    values = {}
    for flag in ("-n", "-b", "-k"):
        values[flag] = int(argv[argv.index(flag) + 1])
    return argv[0], values["-n"], values["-b"], values["-k"]


def point_key(n: int, b: int, k: int) -> str:
    return f"{n}x{b}x{k}"


def require_program() -> None:
    """Exit with a message when the checkout holds no program to measure."""
    if not (SRC / "permutiple" / "cli.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)


def load_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read benchmark data {path}: {exc}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------- processes


@dataclass
class Exit:
    """How a child process ended, from ``os.wait4``."""

    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    timed_out: bool


def run_child(cmd: list[str], stdout_path: Path, timeout: float = JOB_TIMEOUT_S) -> Exit:
    """Run ``cmd`` from the checkout root with stdout to a file.

    The wall time spans process creation to reaping; ``os.wait4`` gives the
    child's own peak RSS and CPU time.  A watchdog kills the child after
    ``timeout`` seconds, and the child is always reaped before returning.
    """
    stderr_path = stdout_path.with_suffix(stdout_path.suffix + ".err")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=CHILD_ENV)
        expired = threading.Event()

        def kill() -> None:
            expired.set()
            proc.kill()

        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        timed_out=expired.is_set(),
    )


def cli_command(argv: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "permutiple.cli", *argv]


def stdout_facts(argv: tuple[str, ...], path: Path) -> tuple[str, int, int]:
    """(sha256, record count, byte count) of a job's stdout file.

    Records are output lines, except for ``oeis-check``, whose record count
    is the number of matched b-file values in its JSON report.
    """
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if argv[0] == "oeis-check":
        try:
            records = len(json.loads(data)["matches"])
        except (ValueError, KeyError, TypeError):
            records = -1
    else:
        records = data.count(b"\n")
    return digest, records, len(data)


# ------------------------------------------------------- record arithmetic


def to_int(display: list[int] | tuple[int, ...], base: int) -> int:
    value = 0
    for d in display:
        value = value * base + d
    return value


def equation_holds(n: int, b: int, digits, preimage) -> bool:
    """digits = n * preimage as base-b numbers, with equal digit multisets."""
    return (
        len(digits) == len(preimage)
        and all(0 <= d < b for d in digits)
        and sorted(digits) == sorted(preimage)
        and to_int(digits, b) == n * to_int(preimage, b)
    )


def format_seed(n: int, b: int, digits, preimage) -> str:
    """Seed syntax, most significant digit first: ``4x10:87912=4*21978``."""
    sep = "" if b <= 10 else ","
    lhs = sep.join(str(d) for d in digits)
    rhs = sep.join(str(d) for d in preimage)
    return f"{n}x{b}:{lhs}={n}*{rhs}"


_SEED = re.compile(r"^(\d+)x(\d+):([0-9,]+)=(\d+)\*([0-9,]+)$")


def parse_seed(text: str) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    match = _SEED.match(text)
    if not match:
        raise ValueError(f"bad seed {text!r}")
    n, b = int(match.group(1)), int(match.group(2))

    def block(part: str) -> tuple[int, ...]:
        if "," in part or b > 10:
            return tuple(int(x) for x in part.split(","))
        return tuple(int(ch) for ch in part)

    return n, b, block(match.group(3)), block(match.group(5))


_TEXT_RECORD = re.compile(r"^\(([0-9,]+)\)_(\d+) = (\d+) \* \(([0-9,]+)\)_\d+  \[carries [0-9,]+\]$")


def parse_record_line(line: str) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """(n, b, digits, preimage) of one JSON or text record line."""
    if line.startswith("{"):
        payload = json.loads(line)
        return (
            payload["multiplier"],
            payload["base"],
            tuple(payload["digits"]),
            tuple(payload["preimage"]),
        )
    match = _TEXT_RECORD.match(line)
    if not match:
        raise ValueError(f"bad record line {line!r}")
    digits = tuple(int(x) for x in match.group(1).split(","))
    preimage = tuple(int(x) for x in match.group(4).split(","))
    return int(match.group(3)), int(match.group(2)), digits, preimage


def carries_of(n: int, b: int, digits, preimage) -> list[int]:
    """Carries c_1..c_k of preimage * n, least significant position first."""
    carry, out = 0, []
    for p in reversed(preimage):
        carry = (n * p + carry) // b
        out.append(carry)
    return out


def graph_of(digits, preimage) -> frozenset[tuple[int, int]]:
    """The digit-pair graph: one edge (digit, preimage digit) per position."""
    return frozenset(zip(digits, preimage))
