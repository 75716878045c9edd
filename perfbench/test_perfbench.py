"""Tests of the benchmark itself, on the smoke grid.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import golden
import reference
import run
import session
import tracer
from common import (
    GOLDEN_PATH,
    HERE,
    OUT,
    POOL_PATH,
    ROOT,
    SMOKE_JOBS,
    WORKLOADS,
    job_key,
    load_json,
    run_child,
)


def _run_dir(name: str):
    path = OUT / "tests" / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracer.PER_LAYER
    ]


def test_smoke_goldens_revalidate():
    stored = load_json(GOLDEN_PATH)["jobs"]
    for argv in SMOKE_JOBS:
        _, facts = golden.validate_job(argv)
        assert facts == stored[job_key(argv)]


def test_smoke_jobs_pass_and_a_wrong_golden_fails():
    goldens = load_json(GOLDEN_PATH)
    runner = run.CliJobs(SMOKE_JOBS, _run_dir("jobs"), goldens)
    for argv in SMOKE_JOBS:
        result, size = runner.run(argv)
        assert result.code == 0 and size > 0 and result.maxrss_mb > 0
    assert runner.attempted == len(SMOKE_JOBS) and runner.failures == []

    tampered = json.loads(json.dumps(goldens))
    tampered["jobs"][job_key(SMOKE_JOBS[0])]["sha256"] = "0" * 64
    runner = run.CliJobs(SMOKE_JOBS[:1], _run_dir("jobs"), tampered)
    runner.run(SMOKE_JOBS[0])
    assert runner.failures == [f"{job_key(SMOKE_JOBS[0])}: stdout digest differs"]


def test_traced_smoke_jobs_report_every_layer_metric():
    run_dir = _run_dir("trace")
    runner = run.CliJobs(SMOKE_JOBS, run_dir, load_json(GOLDEN_PATH))
    dumps = []
    for job_id, argv in enumerate(SMOKE_JOBS, start=1):
        path = run_dir / f"trace-{job_id}.json"
        runner.run(argv, path, job_id)
        dumps.append(json.loads(path.read_text()))
    assert runner.failures == []
    merged = tracer.merge(dumps)
    assert merged["missing"] == []
    metrics = tracer.layer_metrics(merged, 1.0, 1)
    assert list(metrics) == [name for name, _, _ in tracer.PER_LAYER]
    assert metrics["cli.main.self_s"] > 0
    assert metrics["search.strings"] > 0 and metrics["digits.from_int.calls"] > 0
    assert 0 < metrics["search.oracle_hit_ratio"] < 1
    assert 0.99 < sum(metrics[f"layer.{m}.share"] for m in tracer.MODULES) <= 1.0 + 1e-9
    roots = [s for s in merged["spans"] if s[4] == 0]
    assert sorted(s[5] for s in roots) == [1, 2, 3]
    assert all(s[1] == "cli.main" for s in roots)


def test_reference_job_and_scaling():
    out = _run_dir("reference") / "reference.out"
    assert run_child([sys.executable, str(HERE / "reference.py")], out).code == 0
    assert out.read_text().strip() == str(reference.EXPECTED)
    metrics = run.latency_metrics([[0.4, 0.2], [0.3, 0.5]], 10, 2.0)
    assert metrics["wall_s"] == (0.2 + 0.3) * 2.0
    assert metrics["records_per_s"] == 10 / metrics["wall_s"]


def test_session_queries_follow_the_seed():
    pool = load_json(POOL_PATH)
    first = session.make_queries(5, pool)
    assert first == session.make_queries(5, pool)
    assert first != session.make_queries(6, pool)
    assert len(first) == session.QUERY_COUNT
    ops = [q["op"] for q in first]
    assert {op: ops.count(op) for op, _ in session.MIX} == {
        op: session.QUERY_COUNT * share // 100 for op, share in session.MIX
    }


def test_session_answers_are_checked():
    run_dir = _run_dir("session")
    pool = load_json(POOL_PATH)
    queries = session.make_queries(3, pool)
    queries = [q for op, _ in session.MIX for q in queries if q["op"] == op][::25]
    queries_path = run_dir / "queries.json"
    queries_path.write_text(json.dumps(queries))
    result_path = run_dir / "result.json"
    cmd = [sys.executable, str(HERE / "session.py"), "run", str(queries_path), str(result_path), "0"]
    assert run_child(cmd, run_dir / "session.out").code == 0
    result = json.loads(result_path.read_text())
    attempted, failed, items = session.check(queries, result, pool)
    assert (attempted, failed) == (len(queries), 0) and items > 0

    for index, query in enumerate(queries):
        if query["op"] == "class":
            result["forms"][index] = result["forms"][index][1:]
            break
    assert session.check(queries, result, pool)[1] == 1


def test_a_checkout_without_the_program_is_refused():
    bare = _run_dir("bare")
    shutil.rmtree(bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "find-sparse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
