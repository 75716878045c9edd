"""Build and validate the benchmark's golden data.

    python perfbench/golden.py

writes, under ``perfbench/data``:

- ``b_3x4_k9.txt``: an OEIS-style b-file synthesised from the integer
  oracle's (3,4,k<=9) records that are canonical on both sides, so that
  ``oeis-check`` has a known clean answer without any download;
- ``pool.json``: the full record sets (leading zeros allowed) of the grid
  points class-session draws from, in seed syntax;
- ``golden.json``: each CLI job's stdout SHA-256, record count, byte count
  and exit code, with the check that validated it.

Every golden is validated once, here.  Where the scan is affordable
(b**k <= 10**7) the machine search and the integer oracle must print
byte-identical output.  For every ``find --allow-leading-zero`` job,
wherever the oracle reaches or not, the record count must also equal the
BEST circuit count summed over the feasible unions, after checking the
identity sum(count_eulerian_circuits * out_degree(0)) = sum(strings *
duplicate_label_factor).  Every record must satisfy its equation.
"""

from __future__ import annotations

import json
import sys

from common import (
    BFILE,
    CLI_WORKLOADS,
    DATA,
    FIND_POINTS,
    GOLDEN_PATH,
    OUT,
    POOL_PATH,
    ROOT,
    SEED_POINTS,
    SMOKE_JOBS,
    SRC,
    cli_command,
    equation_holds,
    format_seed,
    job_key,
    job_params,
    parse_record_line,
    point_key,
    require_program,
    run_child,
    stdout_facts,
    to_int,
)

ORACLE_LIMIT = 10**7


def run_cli(argv: tuple[str, ...]) -> tuple[bytes, dict]:
    """Run one CLI job; its stdout and golden facts."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "golden.out"
    result = run_child(cli_command(argv), path)
    if result.timed_out:
        raise RuntimeError(f"{job_key(argv)}: timed out")
    digest, records, size = stdout_facts(argv, path)
    data = path.read_bytes()
    return data, {"sha256": digest, "records": records, "bytes": size, "exit": result.code}


def check_records(argv: tuple[str, ...], data: bytes) -> None:
    """Every record satisfies its equation for the job's n, b and k."""
    _, n, b, k = job_params(argv)
    allow = "--allow-leading-zero" in argv
    seen = set()
    for line in data.decode().splitlines():
        rn, rb, digits, preimage = parse_record_line(line)
        if (rn, rb, len(digits)) != (n, b, k) or not equation_holds(n, b, digits, preimage):
            raise RuntimeError(f"{job_key(argv)}: bad record {line!r}")
        if not allow and digits[0] == 0:
            raise RuntimeError(f"{job_key(argv)}: zero-led record without --allow-leading-zero")
        if (digits, preimage) in seen:
            raise RuntimeError(f"{job_key(argv)}: duplicate record {line!r}")
        seen.add((digits, preimage))


def best_count(n: int, b: int, k: int) -> int:
    """Distinct permutiple strings of length k by the BEST theorem."""
    sys.path.insert(0, str(SRC))
    import permutiple as pm

    circuits_total = strings_total = expected = 0
    for _, delta in pm.feasible_unions(n, b, k):
        circuits = pm.count_eulerian_circuits(delta) * delta.out_degree(0)
        factor = pm.duplicate_label_factor(delta)
        circuits_total += circuits
        strings_total += len(pm.eulerian_strings(delta)) * factor
        expected += circuits // factor
    if circuits_total != strings_total:
        raise RuntimeError(f"BEST identity fails at {(n, b, k)}: {circuits_total} != {strings_total}")
    return expected


def validate_job(argv: tuple[str, ...]) -> tuple[bytes, dict]:
    """Run a job, validate its output independently; its stdout and golden."""
    data, facts = run_cli(argv)
    command, n, b, k = job_params(argv)
    if facts["exit"] != 0:
        raise RuntimeError(f"{job_key(argv)}: exit code {facts['exit']}")
    if command == "oeis-check":
        report = json.loads(data)
        expected = sorted(n * value for _, value in read_bfile() if n * value < b**k)
        if report["misses"] or report["extras"] or report["matches"] != expected:
            raise RuntimeError(f"{job_key(argv)}: b-file and search disagree")
        facts["validated_by"] = "b-file synthesised from the oracle"
        return data, facts
    check_records(argv, data)
    checks = []
    if b**k <= ORACLE_LIMIT:
        other = "oracle" if command == "find" else "find"
        other_data, _ = run_cli((other, *argv[1:]))
        if other_data != data:
            raise RuntimeError(f"{job_key(argv)}: find and oracle output differ")
        checks.append("byte-identical find and oracle")
    if command == "find" and "--allow-leading-zero" in argv:
        if facts["records"] != best_count(n, b, k):
            raise RuntimeError(f"{job_key(argv)}: record count differs from the BEST count")
        checks.append("BEST circuit count")
    if not checks:
        raise RuntimeError(f"{job_key(argv)}: no affordable validation")
    facts["validated_by"] = "; ".join(checks)
    return data, facts


def read_bfile() -> list[tuple[int, int]]:
    with open(ROOT / BFILE, encoding="utf-8") as handle:
        lines = [line.split("#", 1)[0].split() for line in handle]
    return [(int(i), int(v)) for i, v in (parts for parts in lines if parts)]


def write_bfile() -> None:
    values = []
    for k in range(1, 10):
        data, facts = run_cli(("oracle", "-n", "3", "-b", "4", "-k", str(k)))
        if facts["exit"] != 0:
            raise RuntimeError("oracle failed while building the b-file")
        for line in data.decode().splitlines():
            _, _, _, preimage = parse_record_line(line)
            if preimage[0] != 0:
                values.append(to_int(preimage, 4))
    values.sort()
    lines = ["# Multiplicands q with 3*q an anagram of q in base 4, both without",
             "# leading zero, up to 9 digits; built by perfbench/golden.py from",
             "# the integer oracle."]
    lines += [f"{i} {v}" for i, v in enumerate(values, start=1)]
    (ROOT / BFILE).write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_pool() -> tuple[dict[str, list[str]], dict[str, dict]]:
    pool, goldens = {}, {}
    for n, b, k in SEED_POINTS + FIND_POINTS:
        argv = ("find", "-n", str(n), "-b", str(b), "-k", str(k), "--allow-leading-zero")
        data, facts = validate_job(argv)
        pool[point_key(n, b, k)] = [
            format_seed(n, b, *parse_record_line(line)[2:]) for line in data.decode().splitlines()
        ]
        goldens[point_key(n, b, k)] = facts
    return pool, goldens


def main() -> int:
    require_program()
    DATA.mkdir(exist_ok=True)
    write_bfile()
    jobs = {}
    for argv in [job for jobs_ in CLI_WORKLOADS.values() for job in jobs_] + list(SMOKE_JOBS):
        jobs[job_key(argv)] = validate_job(argv)[1]
        print(f"{job_key(argv)}: {jobs[job_key(argv)]['validated_by']}", flush=True)
    pool, pool_goldens = build_pool()
    with open(POOL_PATH, "w", encoding="utf-8") as handle:
        json.dump(pool, handle, indent=0)
        handle.write("\n")
    golden = {"jobs": jobs, "pool": pool_goldens}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH.relative_to(ROOT)} and {POOL_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
