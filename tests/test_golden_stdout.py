"""CLI stdout stays byte-identical on the benchmark's golden jobs and more.

Runs ``permutiple.cli.main`` in-process on every ``find``, ``oracle`` and
``oeis-check`` job recorded in ``perfbench/data/golden.json`` and compares
the exit code and the sha256 of stdout with the recorded ones.  The golden
file is only read here.  ``tests/cli_digests.json`` holds the same facts
for the commands the golden file lacks: graph exports, ``verify`` and the
symmetry toolkit.  The ``golden-stdout`` CI job checks both files.  Every
job is a plain command line, so the CLI reads it without argparse; each is
also read into the namespace argparse builds.
"""

import hashlib
import json
from pathlib import Path

import pytest

from permutiple.cli import _plain_args, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "data" / "golden.json").read_text(encoding="utf-8"))
JOBS = sorted(key for key in GOLDEN["jobs"] if key.split()[0] in ("find", "oracle", "oeis-check"))

# the commands golden.json lacks, in the same form as its jobs
DIGESTS = json.loads((ROOT / "tests" / "cli_digests.json").read_text(encoding="utf-8"))["jobs"]


def run(argv, capsys):
    plain = _plain_args(argv)
    assert plain is not None and vars(plain) == vars(build_parser(argv[0]).parse_args(argv))
    code = main(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("job", JOBS)
def test_stdout_matches_golden(job, capsys):
    argv = job.split()
    if "--bfile" in argv:
        at = argv.index("--bfile") + 1
        argv[at] = str(ROOT / argv[at])
    facts = GOLDEN["jobs"][job]
    assert run(argv, capsys) == (facts["exit"], facts["sha256"])


@pytest.mark.parametrize(
    "job, code, digest", [(job, facts["exit"], facts["sha256"]) for job, facts in DIGESTS.items()]
)
def test_stdout_matches_digest(job, code, digest, capsys):
    assert run(job.split(), capsys) == (code, digest)
