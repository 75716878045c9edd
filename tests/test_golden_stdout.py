"""CLI stdout stays byte-identical on the benchmark's golden jobs.

Runs ``permutiple.cli.main`` in-process on every ``find`` and ``oeis-check``
job recorded in ``perfbench/data/golden.json`` and compares the exit code
and the sha256 of stdout with the recorded ones.  The golden file is only
read here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from permutiple.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "data" / "golden.json").read_text(encoding="utf-8"))
JOBS = sorted(key for key in GOLDEN["jobs"] if key.split()[0] in ("find", "oeis-check"))


@pytest.mark.parametrize("job", JOBS)
def test_stdout_matches_golden(job, capsys):
    argv = job.split()
    if "--bfile" in argv:
        at = argv.index("--bfile") + 1
        argv[at] = str(ROOT / argv[at])
    code = main(argv)
    out = capsys.readouterr().out
    facts = GOLDEN["jobs"][job]
    assert code == facts["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == facts["sha256"]
