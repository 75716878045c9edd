"""CLI stdout stays byte-identical on the benchmark's golden jobs and more.

Runs ``permutiple.cli.main`` in-process on every ``find``, ``oracle`` and
``oeis-check`` job recorded in ``perfbench/data/golden.json`` and compares
the exit code and the sha256 of stdout with the recorded ones.  The golden
file is only read here.  ``DIGESTS`` does the same for the commands the
golden file lacks: graph exports, ``verify`` and the symmetry toolkit.
"""

import hashlib
import json
from pathlib import Path

import pytest

from permutiple.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "data" / "golden.json").read_text(encoding="utf-8"))
JOBS = sorted(key for key in GOLDEN["jobs"] if key.split()[0] in ("find", "oracle", "oeis-check"))

# (argv, exit code, sha256 of stdout) for the commands golden.json lacks
DIGESTS = [
    ("mother-graph -n 4 -b 10 --format dot", 0, "83f5a14e3bc2f0d5645f4882991d98577703e2ff8b346e882a4f8a41984feb2a"),
    ("mother-graph -n 4 -b 10 --format json", 0, "7dcfd2c05f4fa56b0fe1782ac6b69d7df4fb41ab4a2ea5b01ba376797e75f092"),
    ("mother-graph -n 4 -b 10 --format text", 0, "72684e4b4124bea89fca8edc92cad8bb400122f5e358c221d1a52fdee514e413"),
    ("hs-graph -n 4 -b 10 --format dot", 0, "41a6bf614e8d63af45b3a41be64c16a287cbf100731378cb27c2d8c8e7beaef4"),
    ("hs-graph -n 4 -b 10 --format json", 0, "0216c891d0735859da893ce2cc28d1372fa660ea6143a2ba05374ae4f52d9ca6"),
    ("hs-graph -n 4 -b 10 --format text", 0, "c36271b8982a30c98878e834508512ff6f8deb4e790b86411c3373f459e8df52"),
    ("hs-multigraph -n 4 -b 10 --format dot", 0, "b3da81da5a9e5b49619a5fb0260dd8bcc61273929136574692c173da82e5f4d0"),
    ("hs-multigraph -n 4 -b 10 --format json", 0, "7d8f6587eb5db9f888d577a92a166ed69f83805688b4c3eee22405fcc8b49ffa"),
    ("hs-multigraph -n 4 -b 10 --format text", 0, "f37d8242c45aa405bbaa0d670ac3760960767b0aad1981477fd39b60134a84dc"),
    ("verify --seed 4x10:87912=4*21978 --format json", 0, "fb5cf15a45e2b0984150f06fabab97890dddd175d5900a904a13e9c144979bdb"),
    ("verify --seed 4x10:87912=4*21978 --format text", 0, "7d7b26d26349afe0e7a41aabf644a233053e92282c17194f5f9bfbe26c35467d"),
    ("verify --seed 4x10:87912=4*21978 --sigma 4,3,2,1,0", 0, "fb5cf15a45e2b0984150f06fabab97890dddd175d5900a904a13e9c144979bdb"),
    # a given sigma, not the smallest one ([3,2,1,0,4,5,6]), is the one printed
    ("verify --seed 4x10:0008712=4*0002178 --sigma 3,2,1,0,5,4,6 --format json", 0, "c1a34e128185e5405aaf4f2f86e82e431edae7f917a7a96581f745a9ea7ca01b"),
    ("verify --seed 4x10:0008712=4*0002178 --sigma 3,2,1,0,5,4,6 --format text", 0, "9bacf1d0e184cedd4a744007efc22c7a758868a6b2cc41f6a1ccccca641a839b"),
    ("siblings --seed 4x10:86712=4*21678", 0, "b2222d835df8ef4410c35240f3c7f672b49983d39211e4218b8633cbde7fe645"),
    ("class --seed 4x10:727119288=4*181779822 --format json", 0, "d8f00a570db8b03bfc613c7b6151e61b7463cbae98b83cbe03843a473b5f3515"),
    ("class --seed 4x10:727119288=4*181779822 --format text", 0, "4c6f1ac403c2e0ab9099c5eb554eecbd45af96986a7dea4c3a362ccfa781cd93"),
    ("symmetries --seed 4x10:727119288=4*181779822", 0, "76609b0b6b81add881182c43120217eac7099b94cd080d3f1fa4f94acb60425e"),
    ("siblings --seed 3x4:30023031=3*10003233", 0, "62444d8bbe3c0fd234c0219daa7bcdc76953cc17bb93f7d914446c195cdef609"),
    ("symmetries --seed 3x4:30023031=3*10003233", 0, "71ca9a4e4497d430771429770a8e3caf2fccb0cdf159de86839590aa6ccca27a"),
    ("siblings --seed 5x12:9,1,2,0,0,10=5*1,9,10,0,0,2", 0, "7fac7f1c40751019f2f3ab538f80c2cba6a4111c9eca9020c57eaa28dd693686"),
    ("symmetries --seed 5x12:9,1,2,0,0,10=5*1,9,10,0,0,2", 0, "d6a7b63944ddcb0744d3dd602e41f7c34397dddb5f38bda279ce21e33de4fc2e"),
    ("closure --seed 4x10:86712=4*21678", 0, "e09ec75996a040a2e408817d1cec080e7c267eea6c1a361264d233ab6f61888a"),
    ("closure --seed 4x10:00=4*00", 1, "327e8af6ca18e112d3e875aa73739cad5b278f749c03825a503b2b6aa7c7c470"),
]


def run(argv, capsys):
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


@pytest.mark.parametrize("job, code, digest", DIGESTS)
def test_stdout_matches_digest(job, code, digest, capsys):
    assert run(job.split(), capsys) == (code, digest)
