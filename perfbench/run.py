"""The permutiple benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it measures the sources under ``src/``.
Workloads (``--workload all`` runs each in turn):

- ``find-sparse``: CLI ``find`` on points with large cycle inventories and
  few feasible unions, so union search carries the time.
- ``find-dense``: CLI ``find --allow-leading-zero``, a text-format ``find``
  and an ``oeis-check``, on points with small inventories and large output:
  record materialisation, serialisation and emission.
- ``oracle-scan``: CLI ``oracle``, the integer scan; digit-string work only.
- ``class-session``: one library client issuing symmetry queries drawn
  from golden records (see ``session.py``).

Each workload is a closed loop with one client: a fixed list of operations
(CLI jobs, each in a fresh process, or library queries), issued one at a
time in an order drawn from ``--seed``, round after round until another
round would overrun ``--seconds``.  Every operation's output is checked
against golden data outside the timed region.

End-to-end metrics (``--trace 0``):

- ``wall_s``: time to finish the operation list once, as the sum over the
  operations of each one's fastest time across the rounds (scaled by the
  machine's speed, see below);
- ``records_per_s``: records one pass of the list emits, per ``wall_s``;
- ``query_p50_ms``, ``query_p95_ms``: median and 95th percentile over the
  operations of their fastest latencies (for CLI workloads an operation is
  a whole job, so with four or five jobs the 95th percentile is close to
  the slowest job);
- ``setup_s``: median over fresh processes of interpreter start plus
  ``import permutiple.cli`` and ``build_parser()`` (CLI workloads), or
  library import plus seed load (class-session);
- ``peak_rss_mb``: the highest peak RSS of any one operation's process.

Every round repeats the same deterministic computations, so the spread of
one operation's times is the machine's, not the program's.  On a shared
host (measured on a 2-vCPU Intel Xeon virtual machine) speed drops by
15-40 % for seconds at a time, and contention only ever adds time.  The
fastest time of each operation is therefore the estimate of its cost (as
``timeit`` advises).  It is steady only when the operation is short and
timed often: CLI jobs take 0.15-0.35 s, so a 30 s run times each about
25 times; with jobs of 1-2 s and 5 rounds, the fastest time of a job
moved by 20 % between runs.  Set-up time, measured in separate processes
spread over the run, is a median.

The host also slows down as a whole, by up to 60 % for minutes at a time,
and then every fastest time in a run moves together.  So each run also
times ``reference.py``, a fixed pure-Python job that imports nothing from
the program, in a fresh process twice per round (class-session: eight
times before its client and eight after).  Every fastest time above is
multiplied by ``REFERENCE_S`` over the reference job's fastest time in the
run, and the set-up median by ``REFERENCE_S`` over its median time.  The
class-session client runs for the whole run in one process, so it times
the reference's scan itself after every pass, and its query latencies are
scaled by ``REFERENCE_SCAN_S`` over the fastest of those.  Figures thus
read as seconds on the machine the benchmark was defined on, at full
speed; the unscaled times and the factors are printed and kept in
``result.json``.  A change to the program moves its jobs and not the
reference, so the scaling cannot hide it.

Failed operations (wrong digest, record count or exit code, an exception,
a timeout) are reported as ``failed`` out of ``attempted``; their ratio is
the error rate.  ``--trace 1`` instead runs each operation untraced and
under ``tracer.py`` in turn, a few times, and reports per-layer metrics
(see ``tracer.PER_LAYER``) with a self-time share table.  Time metrics of
the traced run are not scaled; ``trace_overhead_ratio`` compares traced
with untraced times of the same run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import session
import tracer
from common import (
    CLI_WORKLOADS,
    GOLDEN_PATH,
    HERE,
    OUT,
    POOL_PATH,
    SESSION_WORKLOAD,
    WORKLOADS,
    cli_command,
    job_key,
    load_json,
    require_program,
    run_child,
    stdout_facts,
)

# name, unit, better, bound
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("records_per_s", "1/s", "higher", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p95_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
UNITS = {name: unit for name, unit, *_ in END_TO_END + tracer.PER_LAYER}

SETUP_PROBES = 8  # class-session: half before the client runs, half after

# About the reference job's fastest time (s) on the machine the benchmark
# was defined on (2-vCPU Intel Xeon virtual machine, Python 3.11.7) at its
# full speed.  Time metrics are scaled by REFERENCE_S over the reference
# job's time in the run, so they read as seconds on that machine.
REFERENCE_S = 0.1
# The same for the reference's scan alone, timed inside the class-session
# client between its passes.
REFERENCE_SCAN_S = 0.05
REFERENCE_PER_ROUND = 2  # CLI workloads: at random places in every round
REFERENCE_PROBES = 16  # class-session: half before the client runs, half after
SETUP_PROBES_PER_ROUND = 1  # CLI workloads: before every round
CLI_SETUP = "import permutiple.cli as cli; cli.build_parser()"

# What is predicted to carry most of the in-program time of a workload in
# the traced run: a function's self time, a function with everything it
# calls (inclusive), or a module's self time.
PREDICTIONS = {
    "find-sparse": (("self", "search.feasible_unions"),),
    "find-dense": (
        ("inclusive", "search.string_to_permutiple"),
        ("module", "serialize"),
        ("module", "cli"),
    ),
    "oracle-scan": (("module", "digits"),),
}


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_start": os.getloadavg(),
    }


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


@dataclass
class Outcome:
    """What one run measured: metrics, operations attempted and failed (with
    a message per failure), and the raw samples behind the metrics."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    failures: list[str]
    samples: dict = field(default_factory=dict)


class Probe:
    """Wall times of a fixed command in fresh processes: the set-up probe or
    the reference job.

    One untimed warm-up first leaves byte-code caches as every later start
    finds them.  Callers spread the samples over the run, so that one slow
    spell of the machine does not set the result."""

    def __init__(self, cmd: list[str], run_dir: Path):
        self.cmd = cmd
        self.path = run_dir / "setup.out"
        self.times: list[float] = []
        self._once()

    def _once(self) -> float:
        result = run_child(self.cmd, self.path)
        if result.code != 0:
            raise SystemExit(f"error: probe failed: {' '.join(self.cmd)}")
        return result.wall_s

    def sample(self, count: int) -> None:
        self.times.extend(self._once() for _ in range(count))

    def median(self) -> float:
        return statistics.median(self.times)

    def fastest(self) -> float:
        return min(self.times)


def reference_probe(run_dir: Path) -> Probe:
    return Probe([sys.executable, str(HERE / "reference.py")], run_dir)


def speed_scales(reference: Probe, out: list[str]) -> tuple[float, float]:
    """Factors that turn this run's seconds into reference-machine seconds:
    one for fastest times, one for medians, each from the same statistic of
    the reference job's times."""
    fastest, median = reference.fastest(), reference.median()
    out.append(f"reference job: fastest {fastest:.4f} s, median {median:.4f} s of "
               f"{len(reference.times)}; fastest times scaled by {REFERENCE_S / fastest:.4f}, "
               f"set-up medians by {REFERENCE_S / median:.4f}")
    return REFERENCE_S / fastest, REFERENCE_S / median


def latency_metrics(samples: list[list[float]], records: int, scale: float) -> dict[str, float]:
    """End-to-end timing metrics from each operation's times (s), scaled to
    the reference machine."""
    times = [min(s) * scale for s in samples]
    wall = sum(times)
    millis = [t * 1000 for t in times]
    return {
        "wall_s": wall,
        "records_per_s": records / wall,
        "query_p50_ms": statistics.median(millis),
        "query_p95_ms": p95(millis),
    }


# ------------------------------------------------------------- CLI workloads


class CliJobs:
    """Runs CLI jobs and checks each against its golden."""

    def __init__(self, jobs: tuple[tuple[str, ...], ...], run_dir: Path, golden: dict):
        self.jobs = jobs
        self.run_dir = run_dir
        self.golden = golden["jobs"]
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, argv: tuple[str, ...], trace_path: Path | None = None, job_id: int = 0):
        path = self.run_dir / "job.out"
        if trace_path is None:
            cmd = cli_command(argv)
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path), str(job_id), "--", *argv]
        result = run_child(cmd, path)
        digest, records, size = stdout_facts(argv, path)
        expect = self.golden.get(job_key(argv))
        self.attempted += 1
        problem = None
        if expect is None:
            problem = "no golden"
        elif result.timed_out:
            problem = "timeout"
        elif result.code != expect["exit"]:
            problem = f"exit code {result.code}, expected {expect['exit']}"
        elif records != expect["records"]:
            problem = f"{records} records, expected {expect['records']}"
        elif digest != expect["sha256"]:
            problem = "stdout digest differs"
        if problem:
            self.failures.append(f"{job_key(argv)}: {problem}")
        return result, size

    def order(self, rng: random.Random) -> list[tuple[str, ...]]:
        order = list(self.jobs)
        rng.shuffle(order)
        return order

    def records(self) -> int:
        return sum(self.golden[job_key(a)]["records"] for a in self.jobs if job_key(a) in self.golden)


def measure_cli(workload: str, seed: int, seconds: float, run_dir: Path, golden: dict, out: list[str]):
    runner = CliJobs(CLI_WORKLOADS[workload], run_dir, golden)
    rng = random.Random(seed)
    setup = Probe([sys.executable, "-c", CLI_SETUP], run_dir)
    reference = reference_probe(run_dir)
    walls: dict[str, list[float]] = {job_key(a): [] for a in runner.jobs}
    cpus: dict[str, list[float]] = {job_key(a): [] for a in runner.jobs}
    rss = 0.0
    rounds = 0
    started = time.perf_counter()
    while True:
        setup.sample(SETUP_PROBES_PER_ROUND)
        order = runner.order(rng)
        for _ in range(REFERENCE_PER_ROUND):
            order.insert(rng.randrange(len(order) + 1), None)
        for argv in order:
            if argv is None:
                reference.sample(1)
                continue
            result, _ = runner.run(argv)
            walls[job_key(argv)].append(result.wall_s)
            cpus[job_key(argv)].append(result.cpu_s)
            rss = max(rss, result.maxrss_mb)
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    out.append(f"{rounds} rounds of {len(runner.jobs)} jobs in {elapsed:.1f} s")
    out.append(f"  {'job':<52} {'wall s':>8} {'cpu s':>8}  (fastest of the rounds)")
    for key in walls:
        out.append(f"  {key:<52} {min(walls[key]):8.4f} {min(cpus[key]):8.4f}")
    out.append(f"cpu_s (diagnostic, beside wall_s): {sum(min(c) for c in cpus.values()):.4f}, "
               f"unscaled wall {sum(min(w) for w in walls.values()):.4f}")
    scale, median_scale = speed_scales(reference, out)
    metrics = latency_metrics(list(walls.values()), runner.records(), scale)
    metrics["setup_s"] = setup.median() * median_scale
    metrics["peak_rss_mb"] = rss
    samples = {"setup_s": setup.times, "reference_s": reference.times, "wall_s": walls, "cpu_s": cpus}
    return Outcome(metrics, runner.attempted, len(runner.failures), runner.failures, samples)


def trace_cli(workload: str, seed: int, run_dir: Path, golden: dict, out: list[str]):
    """Each job untraced, then at once traced, so both see the same machine,
    three times; the overhead compares the fastest of each kind per job, the
    layer metrics come from the first traced run of each job."""
    runner = CliJobs(CLI_WORKLOADS[workload], run_dir, golden)
    untraced = traced = 0.0
    stdout_bytes = 0
    dumps = []
    for job_id, argv in enumerate(runner.order(random.Random(seed)), start=1):
        plain_s, traced_s = [], []
        for attempt in range(3):
            plain_s.append(runner.run(argv)[0].wall_s)
            path = run_dir / f"trace-{job_id}.json"
            result, size = runner.run(argv, path, job_id)
            traced_s.append(result.wall_s)
            if attempt == 0:
                stdout_bytes += size
                if path.exists():
                    with open(path, encoding="utf-8") as handle:
                        dumps.append(json.load(handle))
            path.unlink(missing_ok=True)
        untraced += min(plain_s)
        traced += min(traced_s)
    metrics = finish_trace(workload, dumps, untraced, traced, stdout_bytes, run_dir, out)
    return Outcome(metrics, runner.attempted, len(runner.failures), runner.failures)


# ------------------------------------------------------------ class-session


def _session_queries(seed: int, run_dir: Path) -> tuple[list[dict], dict, Path]:
    pool = load_json(POOL_PATH)
    queries = session.make_queries(seed, pool)
    path = run_dir / "queries.json"
    path.write_text(json.dumps(queries), encoding="utf-8")
    return queries, pool, path


def _session_client(queries_path: Path, run_dir: Path, seconds: float, trace_path: Path | None):
    result_path = run_dir / "session.json"
    cmd = [sys.executable, str(HERE / "session.py"), "run", str(queries_path), str(result_path), str(seconds)]
    if trace_path is not None:
        cmd.append(str(trace_path))
    exit_ = run_child(cmd, run_dir / "session.out", timeout=seconds + 90)
    if exit_.code != 0 or not result_path.exists():
        err = (run_dir / "session.out.err").read_text(errors="replace")[-2000:]
        raise SystemExit(f"error: class-session client failed (exit {exit_.code}):\n{err}")
    with open(result_path, encoding="utf-8") as handle:
        return exit_, json.load(handle)


def _session_failures(result: dict) -> list[str]:
    return [f"query {i}: {message}" for i, message in sorted(result["errors"].items())]


def measure_session(seed: int, seconds: float, run_dir: Path, out: list[str]):
    queries, pool, queries_path = _session_queries(seed, run_dir)
    setup = Probe([sys.executable, str(HERE / "session.py"), "setup", str(queries_path)], run_dir)
    reference = reference_probe(run_dir)
    setup.sample(SETUP_PROBES // 2)
    reference.sample(REFERENCE_PROBES // 2)
    exit_, result = _session_client(queries_path, run_dir, seconds, None)
    setup.sample(SETUP_PROBES // 2)
    reference.sample(REFERENCE_PROBES // 2)
    attempted, failed, items = session.check(queries, result, pool)
    passes = result["latency_ns"]
    samples = [[ns / 1e9 for ns in column] for column in zip(*passes)]
    _, median_scale = speed_scales(reference, out)
    scan_s = min(result["reference_ns"]) / 1e9
    scale = REFERENCE_SCAN_S / scan_s
    out.append(f"in-client reference scan: fastest {scan_s:.4f} s of {len(result['reference_ns'])}; "
               f"fastest times scaled by {scale:.4f}")
    metrics = latency_metrics(samples, items, scale)
    metrics["setup_s"] = setup.median() * median_scale
    metrics["peak_rss_mb"] = exit_.maxrss_mb
    out.append(f"{len(passes)} passes of {len(queries)} queries; client cpu_s (diagnostic) {exit_.cpu_s:.3f}"
               f" over {exit_.wall_s:.3f} s wall")
    by_op: dict[str, list[float]] = {}
    for query, column in zip(queries, samples):
        by_op.setdefault(query["op"], []).append(min(column) * 1000)
    for op, values in by_op.items():
        out.append(f"  {op:<11} {len(values):5d} queries  median {statistics.median(values):8.4f} ms"
                   f"  p95 {p95(values):8.4f} ms")
    raw = {"setup_s": setup.times, "reference_s": reference.times,
           "reference_scan_ns": result["reference_ns"], "passes": len(passes)}
    return Outcome(metrics, attempted, failed, _session_failures(result), raw)


def trace_session(seed: int, run_dir: Path, out: list[str]):
    """Single-pass clients, untraced and traced in turn, twice; the overhead
    compares the faster of each kind, the layer metrics come from the first
    traced client."""
    queries, pool, queries_path = _session_queries(seed, run_dir)
    results, plain_s, traced_s, dumps = [], [], [], []
    for attempt in range(2):
        _, plain = _session_client(queries_path, run_dir, 0.0, None)
        trace_path = run_dir / f"trace-session-{attempt}.json"
        _, traced = _session_client(queries_path, run_dir, 0.0, trace_path)
        results += [plain, traced]
        plain_s.append(sum(plain["latency_ns"][0]) / 1e9)
        traced_s.append(sum(traced["latency_ns"][0]) / 1e9)
        with open(trace_path, encoding="utf-8") as handle:
            dumps.append(json.load(handle))
        trace_path.unlink()
    checks = [session.check(queries, result, pool) for result in results]
    metrics = finish_trace(SESSION_WORKLOAD, dumps[:1], min(plain_s), min(traced_s), 0, run_dir, out)
    failures = [line for result in results for line in _session_failures(result)]
    return Outcome(metrics, sum(c[0] for c in checks), sum(c[1] for c in checks), failures)


# ------------------------------------------------------------------ tracing


def finish_trace(workload, dumps, untraced, traced, stdout_bytes, run_dir, out) -> dict:
    merged = tracer.merge(dumps)
    metrics = tracer.layer_metrics(merged, traced / untraced, stdout_bytes)
    out.append(f"traced wall {traced:.3f} s, untraced {untraced:.3f} s, "
               f"trace_overhead_ratio {traced / untraced:.3f}")
    out.extend(tracer.share_table(merged, traced))
    total = tracer.in_program_s(merged)
    carriers = []
    for kind, name in PREDICTIONS.get(workload, ()):
        if kind == "module":
            seconds = metrics[f"layer.{name}.self_s"]
        else:
            _, inclusive_ns, self_ns = merged["agg"].get(name, (0, 0, 0))
            seconds = (inclusive_ns if kind == "inclusive" else self_ns) / 1e9
        carriers.append((f"{name} ({kind})", seconds))
    for name, seconds in carriers:
        out.append(f"  predicted carrier {name:<44} {100 * seconds / total:6.2f} %")
    if carriers:
        combined = 100 * sum(seconds for _, seconds in carriers) / total
        verdict = "confirmed" if combined > 50 else "NOT confirmed"
        out.append(f"routing prediction (together most of the self time): {combined:.2f} % -> {verdict}")
    for layer_metrics, end_to_end, where in tracer.ROUTES:
        if workload in where:
            out.append(f"  route: {layer_metrics} -> {end_to_end} on {where}")
    spans_path = run_dir / "spans.json"
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"fields": ["id", "name", "start_ns", "end_ns", "parent", "job", "self_ns"],
             "spans": merged["spans"]},
            handle,
        )
    out.append(f"spans written to {spans_path}")
    return metrics


# --------------------------------------------------------------------- main


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    info = machine()
    out = [f"workload {workload}, seed {seed}, seconds {seconds}, trace {int(trace)}",
           f"machine {json.dumps(info)}"]
    if workload == SESSION_WORKLOAD:
        if trace:
            outcome = trace_session(seed, run_dir, out)
        else:
            outcome = measure_session(seed, seconds, run_dir, out)
    else:
        golden = load_json(GOLDEN_PATH)
        measure = trace_cli if trace else functools.partial(measure_cli, seconds=seconds)
        outcome = measure(workload, seed, run_dir=run_dir, golden=golden, out=out)
    info["loadavg_end"] = os.getloadavg()
    out.append(f"load average at end {info['loadavg_end']}")
    for name, value in outcome.metrics.items():
        out.append(f"{name:<45} {value:16.6f} {UNITS[name]}")
    failed, attempted = outcome.failed, outcome.attempted
    out.append(f"error_rate {failed / attempted:.6f} ({failed} failed of {attempted} attempted)")
    out.extend(f"FAILED {line}" for line in outcome.failures[:20])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in outcome.metrics.items()},
    }
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  machine=info, samples=outcome.samples)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for leftover in ("job.out", "job.out.err", "setup.out", "setup.out.err"):
        (run_dir / leftover).unlink(missing_ok=True)
    return result, out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
