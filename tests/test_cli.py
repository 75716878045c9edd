import contextlib
import errno
import io
import json
import os
import stat
import subprocess
import sys
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutiple import cli, search, symmetry
from permutiple.cli import build_parser, main
from permutiple.digits import build_record
from permutiple.errors import InvariantError
from permutiple.search import walk_records
from permutiple.value import Value

from helpers import child_env, division_walk, inject_walk_fault


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def base4_anagram_multiplicands(limit):
    """Values whose base-4 digits match those of their triple; direct scan."""
    out = []
    for a in range(1, limit + 1):
        def digits(x):
            ds = []
            while x:
                x, d = divmod(x, 4)
                ds.append(d)
            return sorted(ds)

        if digits(a) == digits(3 * a):
            out.append(a)
    return out


def _disk_full(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


def _two_records_then_disk_full(*args, **kwargs):
    """The search kernel's first two records, then a failed write."""
    yield from islice(walk_records(*args, **kwargs), 2)
    _disk_full()


class _HalfWrite:
    """A text file that takes half of what it is given and then fails."""

    def __init__(self, path, *args, **kwargs):
        self.handle = open(path, *args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        _disk_full()


class TestGraphCommands:
    def test_mother_graph_dot(self, capsys):
        code, out, _ = run_cli(capsys, "mother-graph", "-n", "3", "-b", "4")
        assert code == 0
        assert out.count("->") == 12

    def test_hs_graph_json(self, capsys):
        code, out, _ = run_cli(capsys, "hs-graph", "-n", "4", "-b", "10", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["edges"]["0->3"] == ["(2,8)", "(6,9)"]

    def test_hs_multigraph_text(self, capsys):
        code, out, _ = run_cli(capsys, "hs-multigraph", "-n", "3", "-b", "4", "--format", "text")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 12

    def test_usage_error_for_bad_multiplier(self, capsys):
        code, _, err = run_cli(capsys, "mother-graph", "-n", "1", "-b", "10")
        assert code == 2
        assert "multiplier" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "mother-graph", "-n", "4")
        assert code == 2
        assert "--base" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, _ = run_cli(
            capsys, "mother-graph", "-n", "3", "-b", "4", "-o", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().count("->") == 12

    def test_output_file_is_replaced_whole(self, capsys, tmp_path):
        target = tmp_path / "found.json"
        target.write_text("stale\n" * 10000)
        code, out, _ = run_cli(capsys, "find", "-n", "4", "-b", "10", "-k", "4", "-o", str(target))
        assert (code, out) == (0, "")
        _, direct, _ = run_cli(capsys, "find", "-n", "4", "-b", "10", "-k", "4")
        assert target.read_text() == direct
        assert os.listdir(tmp_path) == ["found.json"]

    @pytest.mark.parametrize("failure", ["write", "replace", "stream"])
    def test_failed_output_keeps_the_old_file(self, capsys, tmp_path, monkeypatch, failure):
        target = tmp_path / "found.json"
        target.write_text("old\n")
        if failure == "write":
            monkeypatch.setattr(cli, "open", _HalfWrite, raising=False)
        elif failure == "replace":
            monkeypatch.setattr(os, "replace", _disk_full)
        else:  # lines are written as they are found, and the search fails
            monkeypatch.setattr(cli, "walk_records", _two_records_then_disk_full)
        code, out, err = run_cli(capsys, "find", "-n", "4", "-b", "10", "-k", "4", "-o", str(target))
        assert (code, out) == (1, "")
        assert "No space left" in err
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["found.json"]

    def test_a_walk_that_fails_its_checks_keeps_the_old_file(self, capsys, tmp_path, monkeypatch):
        # a cached plan with one option leading to the wrong carry: the walk
        # proves its rows first, so it refuses before its first walk
        inject_walk_fault(monkeypatch, "cached-option-row")
        with pytest.raises(InvariantError, match="in row 0"):
            next(division_walk(4, 10, 5, allow_leading_zero=False))
        target = tmp_path / "found.json"
        target.write_bytes(b"old\n")
        code, out, err = run_cli(capsys, "find", "-n", "4", "-b", "10", "-k", "5", "-o", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: carry recurrence violated in row 0")
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["found.json"]

    def test_a_walk_that_fails_after_output_began_keeps_the_old_file(
        self, capsys, tmp_path, monkeypatch
    ):
        # tail runs tabled under each other's carries: the join refuses one
        # only after 4 canonical walks, so find has begun its file
        inject_walk_fault(monkeypatch, "run-carry")
        walks = division_walk(4, 10, 5, allow_leading_zero=False)
        assert len(list(islice(walks, 4))) == 4
        with pytest.raises(InvariantError, match="carries do not meet"):
            next(walks)
        target = tmp_path / "found.json"
        target.write_bytes(b"old\n")
        code, out, err = run_cli(capsys, "find", "-n", "4", "-b", "10", "-k", "5", "-o", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: carries do not meet at position 2")
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["found.json"]

    def test_output_through_a_symlink_replaces_its_target(self, capsys, tmp_path):
        target = tmp_path / "found.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        code, _, _ = run_cli(capsys, "find", "-n", "4", "-b", "10", "-k", "4", "-o", str(link))
        _, direct, _ = run_cli(capsys, "find", "-n", "4", "-b", "10", "-k", "4")
        assert code == 0
        assert link.is_symlink()
        assert target.read_text() == direct
        assert sorted(os.listdir(tmp_path)) == ["found.json", "link.json"]

    def test_output_to_a_pipe_is_written_in_place(self, capsys, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, _, _ = run_cli(capsys, "find", "-n", "4", "-b", "10", "-k", "4", "-o", str(pipe))
            received = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        _, direct, _ = run_cli(capsys, "find", "-n", "4", "-b", "10", "-k", "4")
        assert (code, received) == (0, direct)
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]

    def test_byte_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "hs-graph", "-n", "4", "-b", "10", "--format", "dot")
        _, second, _ = run_cli(capsys, "hs-graph", "-n", "4", "-b", "10", "--format", "dot")
        assert first == second


class TestSearchCommands:
    def test_find_and_oracle_agree(self, capsys):
        code, found, _ = run_cli(capsys, "find", "-n", "3", "-b", "4", "--length", "4")
        assert code == 0
        code, scanned, _ = run_cli(capsys, "oracle", "-n", "3", "-b", "4", "--length", "4")
        assert code == 0
        assert found == scanned
        for line in found.strip().splitlines():
            payload = json.loads(line)
            assert payload["value"] % 3 == 0

    def test_allow_leading_zero_flag(self, capsys):
        _, strict, _ = run_cli(capsys, "find", "-n", "3", "-b", "4", "--length", "2")
        _, loose, _ = run_cli(
            capsys, "find", "-n", "3", "-b", "4", "--length", "2", "--allow-leading-zero"
        )
        assert len(loose.splitlines()) > len(strict.splitlines())

    def test_scan_limit_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", "-n", "4", "-b", "10", "--length", "5", "--scan-limit", "100"
        )
        assert code == 1
        assert "limit" in err

    def test_scan_limit_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PERMUTIPLE_SCAN_LIMIT", "100")
        code, _, err = run_cli(capsys, "oracle", "-n", "4", "-b", "10", "--length", "5")
        assert code == 1
        assert "limit" in err

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PERMUTIPLE_SCAN_LIMIT", "100")
        code, out, _ = run_cli(
            capsys, "oracle", "-n", "4", "-b", "10", "--length", "5",
            "--scan-limit", str(10**8),
        )
        assert code == 0
        assert out

    def test_zero_length_names_only_the_length(self, capsys):
        code, out, err = run_cli(capsys, "find", "-n", "4", "-b", "10", "-k", "0")
        assert (code, out, err) == (2, "", "error: length must be at least 1; got 0\n")


class TestConfig:
    def test_config_supplies_values(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("multiplier=3\nbase=4\nlength=4\n# comment\n")
        code, out, _ = run_cli(capsys, "find", "--config", str(config))
        assert code == 0
        assert out

    def test_flags_beat_config(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("multiplier=3\nbase=4\nformat=text\n")
        code, out, _ = run_cli(capsys, "mother-graph", "--config", str(config), "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_unknown_key(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("bogus=1\n")
        code, _, err = run_cli(capsys, "mother-graph", "--config", str(config))
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize(
        "line, detail",
        [
            ("allow-leading-zero = maybe", "cannot interpret 'maybe' as a boolean"),
            ("multiplier = x", "invalid literal for int() with base 10: 'x'"),
        ],
    )
    def test_bad_config_value_names_its_key(self, capsys, tmp_path, line, detail):
        config = tmp_path / "run.conf"
        config.write_text(f"multiplier=3\nbase=4\nlength=4\n{line}\n")
        code, out, err = run_cli(capsys, "find", "--config", str(config))
        key = line.split("=")[0].strip()
        assert (code, out) == (2, "")
        assert f"error: config key {key}: {detail}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("class", "--seed", "4x10:727119288=4*181779822"),
            ("closure", "--seed", "4x10:86712=4*21678"),
        ],
    )
    def test_one_config_serves_every_command(self, capsys, tmp_path, argv):
        # keys for options the command does not read are skipped unconverted
        target = tmp_path / "out.txt"
        config = tmp_path / "run.conf"
        config.write_text(
            "multiplier=7\nbase=10\nlength=99\nallow-leading-zero=yes\nformat=json\n"
            f"output={target}\nscan-limit=1\nseed=4x10:00=4*00\n"
        )
        expected_code, expected, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--config", str(config))
        assert (code, out) == (expected_code, "")
        assert target.read_text() == expected

    def test_config_format_outside_the_command_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("format=dot\n")
        code, out, err = run_cli(
            capsys, "verify", "--seed", "4x10:87912=4*21978", "--config", str(config)
        )
        assert (code, out) == (2, "")
        assert "dot" in err


# (command, option) pairs no handler reads, and a format verify does not offer
UNREAD = [
    ("find", "-n", "3", "-b", "4", "-k", "4", "--scan-limit", "1"),
    *[
        (command, "--seed", "4x10:86712=4*21678", "-n", "4")
        for command in ("verify", "siblings", "class", "symmetries", "closure")
    ],
    *[
        (command, "--seed", "4x10:86712=4*21678", "--format", "json")
        for command in ("siblings", "symmetries", "closure")
    ],
    ("oeis-check", "-n", "3", "-b", "4", "-k", "4", "--bfile", "b.txt", "--format", "json"),
    ("class", "--seed", "4x10:86712=4*21678", "-k", "99"),
    ("class", "--seed", "4x10:86712=4*21678", "--scan-limit", "1"),
    ("oeis-check", "-n", "3", "-b", "4", "-k", "4", "--bfile", "b.txt", "--allow-leading-zero"),
    ("oeis-check", "-n", "3", "-b", "4", "-k", "4", "--bfile", "b.txt", "--scan-limit", "1"),
    ("verify", "--seed", "4x10:87912=4*21978", "--format", "dot"),
]


@pytest.mark.parametrize("argv", UNREAD, ids=" ".join)
def test_unread_option_is_usage_error(capsys, argv):
    assert main(list(argv)) == 2
    assert capsys.readouterr().out == ""


def test_help_returns_zero(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == build_parser().format_help()


PARITY = [
    *([name, "--help"] for name in cli._COMMANDS),
    ["find", "-n", "4", "-b", "10", "-k", "3", "extra"],  # the usage line lists every command
    ["find", "-n", "x", "-b", "10", "-k", "3"],
    ["oeis-check", "-n", "3", "-b", "4", "-k", "5"],  # argparse's own required --bfile
    ["find", "-n", "4", "-b", "10"],
    ["find", "-n", "4", "-b", "10", "-k", "3", "--format", "dot"],
    [],
    ["--help"],
    ["nope"],
]


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("argv", PARITY, ids=lambda argv: " ".join(argv) or "no-args")
def test_one_command_parser_matches_the_full_parser(capsys, monkeypatch, columns, argv):
    """main() builds only the named command's parser; what it prints and
    returns must not tell."""
    monkeypatch.setenv("COLUMNS", columns)
    one = run_cli(capsys, *argv)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert one == run_cli(capsys, *argv)


@pytest.mark.parametrize("argv", PARITY, ids=lambda argv: " ".join(argv) or "no-args")
def test_argparse_alone_prints_help_usage_and_errors(argv):
    """Every PARITY line argparse prints for is left to it by the reader;
    ``find -n 4 -b 10``, which argparse accepts and ``_resolve`` refuses,
    is read alike by both."""
    plain = cli._plain_args(argv)
    try:
        parsed = build_parser().parse_args(argv)
    except SystemExit:
        assert plain is None
    else:
        assert plain is not None and vars(plain) == vars(parsed)


INTS = ["2", "3", "4", "10", "+4", " 4", "4_0"]
STRINGS = ["x", "4x10:87912=4*21978", "4,3,2,1,0", ""]
ODD_VALUES = ["-3", "-", "--", "x", "", "dot", "json"]


def _own_flags(command):
    """Each exact flag of ``command``'s options, ``--no-`` forms included,
    with values its option accepts (None: it takes no value)."""
    spec = cli._COMMANDS[command]
    flags = {}
    for name in ("config",) + spec.reads():
        option = cli._OPTIONS[name]
        if option.settings.get("action") == "bool":
            flags.update((form, None) for f in option.flags for form in (f, "--no-" + f[2:]))
            continue
        good = spec.formats if name == "format" else INTS if "type" in option.settings else STRINGS
        flags.update((flag, good) for flag in option.flags)
    return flags


ALL_FLAGS = sorted({flag for command in cli._COMMANDS for flag in _own_flags(command)})
STRAY = ["--", "-h", "--help", "extra", "find", "-n4", "--base=10", "--format=json", *ODD_VALUES]


@st.composite
def command_lines(draw):
    """A command, then mostly its own flags with values they accept; now and
    then a value they refuse, a flag of another command, an abbreviation, an
    attached value or a stray token."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    own = _own_flags(command)
    abbreviated = [flag[:-2] for flag in own if flag.startswith("--")]
    argv = [command]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 19))
        if kind < 17:
            flag = draw(st.sampled_from(sorted(own)))
            argv.append(flag)
            if own[flag] is not None:
                argv.append(draw(st.sampled_from(own[flag] if kind < 15 else ODD_VALUES)))
        else:
            argv.append(draw(st.sampled_from(STRAY + ALL_FLAGS + abbreviated)))
    return argv


def _echo(args):
    print(sorted(vars(args).items()))
    return 0


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestPlainArgs:
    """``_plain_args`` reads plain command lines as argparse does and leaves
    every other line to argparse."""

    @settings(max_examples=600, deadline=None)
    @given(command_lines())
    def test_namespace_matches_argparse(self, argv):
        plain = cli._plain_args(argv)
        if plain is not None:
            assert vars(plain) == vars(build_parser(argv[0]).parse_args(argv))

    @settings(max_examples=300, deadline=None)
    @given(command_lines())
    def test_main_prints_what_argparse_alone_would(self, argv):
        """Exit code, stdout and stderr of :func:`main` do not change when
        the reader is patched to leave every line to argparse.  The handlers
        are replaced by one that prints the namespace it is given, so a
        drawn line runs no search (``-k 4_0`` would run long) while what is
        printed still depends on everything the parse decided."""
        echoing = {name: spec._replace(handler=_echo) for name, spec in cli._COMMANDS.items()}
        with mock.patch.dict(cli._COMMANDS, echoing):
            read = _run_main(argv)
            with mock.patch.object(cli, "_plain_args", lambda argv: None):
                assert read == _run_main(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["find", "-n", "4", "-b", "10", "-k", "3", "-n", "5", "--allow-leading-zero",
             "--no-allow-leading-zero", "--format", "text", "-o", "x", "--output", "y"],
            ["oracle", "--multiplier", "+4", "--base", " 10", "--length", "4_0", "--scan-limit", "7"],
            ["oeis-check", "-n", "3", "-b", "4", "-k", "7", "--bfile", "b.txt", "--config", ""],
            ["verify", "--seed", "4x10:87912=4*21978", "--sigma", "4,3,2,1,0", "-b", "10"],
            ["find"],
        ],
        ids=" ".join,
    )
    def test_plain_lines_are_read(self, argv):
        plain = cli._plain_args(argv)
        assert plain is not None and vars(plain) == vars(build_parser(argv[0]).parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["find", "-n", "-3", "-b", "10", "-k", "3"],
            ["find", "-n", "-", "-b", "10", "-k", "3"],
            ["find", "-n", "4", "-b", "10", "-k"],
            ["find", "-n", "x"],
            ["find", "-n", ""],
            ["find", "-n4"],
            ["find", "--multiplier=4"],
            ["find", "--mult", "4"],
            ["find", "--allow"],
            ["find", "--no-allow"],
            ["find", "--", "-n", "4"],
            ["find", "-h"],
            ["find", "--seed", "4x10:87912=4*21978"],
            ["find", "--allow-leading-zero", "yes"],
            ["find", "--format", "dot"],
            ["siblings", "--seed", "4x10:86712=4*21678", "--format", "json"],
            ["oeis-check", "-n", "3", "-b", "4", "-k", "5"],
            ["oeis-check", "--no-allow-leading-zero", "--bfile", "b.txt"],
            ["nope", "-n", "4"],
            ["--help"],
            [],
        ],
        ids=" ".join,
    )
    def test_other_lines_are_left_to_argparse(self, argv):
        assert cli._plain_args(argv) is None


@pytest.mark.parametrize(
    "argv, message",
    [([], "arguments are required: command"), (["nope"], "argument command: invalid choice")],
)
def test_a_missing_or_unknown_command_is_named_command(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and message in err


def test_invariant_failure_is_an_error_line(capsys, monkeypatch):
    def unprovable(multiplier, base, digits, preimage):  # every hit but 0 fails its proof
        return build_record(multiplier, base, digits[::-1], preimage)

    monkeypatch.setattr(search, "build_record", unprovable)
    code, out, err = run_cli(capsys, "oracle", "-n", "4", "-b", "10", "-k", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: oracle hit ")
    assert issubclass(InvariantError, RuntimeError)


class TestVerify:
    def test_success_with_carries(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "4x10:87912=4*21978")
        assert code == 0
        payload = json.loads(out)
        assert payload["carries"] == [0, 3, 3, 3, 0]

    def test_explicit_sigma(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--seed", "4x10:87912=4*21978", "--sigma", "4,3,2,1,0"
        )
        assert code == 0
        assert json.loads(out)["sigma"] == [4, 3, 2, 1, 0]

    @pytest.mark.parametrize("sigma", ["0,1", "5,0,1,2,3,4"])
    def test_sigma_of_the_wrong_size_is_usage_error(self, capsys, sigma):
        code, out, err = run_cli(capsys, "verify", "--seed", "4x10:87912=4*21978", "--sigma", sigma)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --sigma")

    def test_failure_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "4x10:12345=4*13245")
        assert code == 1
        assert json.loads(out)["verified"] is False

    def test_bad_seed_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--seed", "whatever")
        assert code == 2
        assert err

    def test_wide_base_comma_seed(self, capsys):
        # 594 = 3 * 198 in base 12, digit multiset {1, 4, 6} on both sides
        code, out, _ = run_cli(capsys, "verify", "--seed", "3x12:4,1,6=3*1,4,6")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 594
        assert payload["digits"] == [4, 1, 6]


class TestSymmetryCommands:
    def test_siblings(self, capsys):
        code, out, _ = run_cli(capsys, "siblings", "--seed", "4x10:86712=4*21678")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["dihedral"]) == 4
        assert [entry["shift"] for entry in payload["reflective"]] == [1, 2]

    def test_class_has_72_lines(self, capsys):
        code, out, _ = run_cli(capsys, "class", "--seed", "4x10:727119288=4*181779822")
        assert code == 0
        assert len(out.strip().splitlines()) == 72

    def test_symmetries(self, capsys):
        code, out, _ = run_cli(capsys, "symmetries", "--seed", "4x10:727119288=4*181779822")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["fixing_symmetries"]) == 2

    @pytest.mark.parametrize(
        "seed, images",
        [("3x4:30023031=3*10003233", 8), ("5x12:9,1,2,0,0,10=5*1,9,10,0,0,2", 2)],
    )
    def test_symmetries_builds_each_image_once(self, capsys, monkeypatch, seed, images):
        built = []
        build = symmetry.build_record

        def counting(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(symmetry, "build_record", counting)
        code, out, _ = run_cli(capsys, "symmetries", "--seed", seed)
        assert code == 0
        assert len(built) == len(json.loads(out)["fixing_symmetries"]) == images

    def test_symmetries_of_a_seed_longer_than_the_recursion_limit(self, capsys):
        zeros = "0" * (sys.getrecursionlimit() + 100)
        code, out, _ = run_cli(capsys, "symmetries", "--seed", f"4x10:{zeros}=4*{zeros}")
        assert code == 0
        assert json.loads(out)["fixing_symmetries"] == []

    def test_closure(self, capsys):
        code, out, _ = run_cli(capsys, "closure", "--seed", "4x10:86712=4*21678")
        assert code == 0
        payload = json.loads(out)
        assert payload["reflection_exists"] is True
        assert payload["closure_symmetric"] is True
        assert len(payload["closure_edges"]) == 8

    def test_closure_without_reflection(self, capsys):
        code, out, _ = run_cli(capsys, "closure", "--seed", "4x10:00=4*00")
        assert code == 1
        assert json.loads(out)["reflection_exists"] is False


class TestOeisCheck:
    def test_clean_cross_check(self, capsys, tmp_path):
        multiplicands = base4_anagram_multiplicands(4**7)
        assert multiplicands, "expected base-4 anagram multiplicands below 4**7"
        bfile = tmp_path / "b.txt"
        bfile.write_text(
            "".join(f"{i} {a}\n" for i, a in enumerate(multiplicands, start=1))
        )
        code, out, _ = run_cli(
            capsys, "oeis-check", "--bfile", str(bfile), "-n", "3", "-b", "4",
            "--length", "8",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["misses"] == []
        assert payload["extras"] == []
        assert payload["matches"]

    def test_mismatch_reported(self, capsys, tmp_path):
        bfile = tmp_path / "b.txt"
        bfile.write_text("1 5\n")  # 15 is not a base-4 permutiple value
        code, out, _ = run_cli(
            capsys, "oeis-check", "--bfile", str(bfile), "-n", "3", "-b", "4",
            "--length", "4",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["misses"] == [15]

    def test_empty_bfile(self, capsys, tmp_path):
        bfile = tmp_path / "b.txt"
        bfile.write_text("# nothing\n")
        code, out, _ = run_cli(
            capsys, "oeis-check", "--bfile", str(bfile), "-n", "3", "-b", "4",
            "--length", "4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["matches"] == [] and payload["misses"] == [] and payload["extras"] == []

    def test_a_walk_that_fails_its_checks_is_refused(self, capsys, tmp_path, monkeypatch):
        bfile = tmp_path / "b.txt"
        bfile.write_text("# nothing\n")  # clean without the fault
        argv = ["oeis-check", "--bfile", str(bfile), "-n", "4", "-b", "10", "--length", "5"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["extras"] == []
        # the cached plan of length 5 with one option leading to the wrong carry
        inject_walk_fault(monkeypatch, "cached-option-row")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: carry recurrence violated in row 0")

    @pytest.mark.parametrize("length", ["0", "-3"])
    def test_a_length_below_1_is_usage_error(self, capsys, tmp_path, length):
        # a length below 1 compares nothing, so it is refused as find refuses it
        bfile = tmp_path / "b.txt"
        bfile.write_text("1 5\n")
        for command in ("oeis-check", "find", "oracle"):
            argv = [command, "-n", "3", "-b", "4", "--length", length]
            if command == "oeis-check":
                argv += ["--bfile", str(bfile)]
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"error: length must be at least 1; got {length}\n"

    def test_bad_bfile_is_usage_error(self, capsys, tmp_path):
        bfile = tmp_path / "b.txt"
        bfile.write_text("2 5\n1 7\n")
        code, _, err = run_cli(
            capsys, "oeis-check", "--bfile", str(bfile), "-n", "3", "-b", "4",
            "--length", "4",
        )
        assert code == 2
        assert "line 2" in err


# the layers no search command uses, and json, which find, oracle and the
# parser never use; a plain command line is read without argparse
LAYERS = ("permutiple.graphs", "permutiple.machine", "permutiple.symmetry")
UNUSED = ("json", *LAYERS)
SMALL_SEARCH = ("-n", "4", "-b", "10", "-k", "4")


def run_module(*argv, **kwargs):
    """``python -m permutiple.cli`` in a child (see :func:`child_env`)."""
    return subprocess.run(
        [sys.executable, "-m", "permutiple.cli", *argv],
        capture_output=True,
        env=child_env(),
        **kwargs,
    )


class TestEntryPoint:
    def test_module_invocation(self):
        result = run_module("verify", "--seed", "4x10:87912=4*21978", text=True)
        assert result.returncode == 0
        assert json.loads(result.stdout)["value"] == 87912

    def test_byte_identical_across_processes(self):
        argv = ("find", "-n", "4", "-b", "10", "--length", "4")
        first = run_module(*argv)
        second = run_module(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    @pytest.mark.parametrize(
        "argv, unused",
        [
            pytest.param(["-c", "import permutiple"], ("permutiple.",), id="package"),
            pytest.param(
                ["-c", "import permutiple.cli; permutiple.cli.build_parser()"], UNUSED, id="cli"
            ),
            pytest.param(
                ["-m", "permutiple.cli", "find", *SMALL_SEARCH], (*UNUSED, "argparse"), id="find"
            ),
            pytest.param(
                ["-m", "permutiple.cli", "oracle", *SMALL_SEARCH],
                (*UNUSED, "argparse"),
                id="oracle",
            ),
            pytest.param(
                ["-m", "permutiple.cli", "oeis-check", *SMALL_SEARCH, "--bfile", os.devnull],
                (*LAYERS, "argparse"),
                id="oeis-check",
            ),
        ],
    )
    def test_import_loads_neither_dataclasses_nor_inspect(self, argv, unused):
        """Start-up imports only what the command uses: never ``dataclasses``
        or ``inspect``; no submodule for the bare package; neither ``json``
        nor the graph, machine and symmetry layers for ``find``, ``oracle``
        and building the parser; no ``argparse`` for the plain command lines
        of ``find``, ``oracle`` and ``oeis-check``, which write no help or
        usage.  Module names are read from the child's ``-X importtime``
        lines, whose last field names the module."""
        result = subprocess.run(
            [sys.executable, "-X", "importtime", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        imported = {
            line.rpartition("|")[2].strip()
            for line in result.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "permutiple" in imported
        assert sorted(m for m in imported if m.startswith(("dataclasses", "inspect", *unused))) == []

    @pytest.mark.parametrize("command", ["find", "oracle"])
    def test_a_closed_stdout_ends_quietly(self, command):
        argv = [command, "-n", "2", "-b", "5", "-k", "8", "--allow-leading-zero"]  # 180 kB
        child = subprocess.Popen(
            [sys.executable, "-m", "permutiple.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        try:
            first = child.stdout.readline()
            child.stdout.close()  # the reader goes away with output still to come
            err = child.stderr.read()
            code = child.wait(timeout=60)
        finally:
            child.kill()
            child.wait()
            child.stderr.close()
        assert json.loads(first)["value"] == 0
        assert (code, err) == (1, b"")

    @pytest.mark.parametrize("command, builds", [("find", False), ("oracle", True)])
    def test_find_builds_no_value_objects(self, capsys, monkeypatch, command, builds):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"built a {type(self).__name__}")

        for cls in Value.__subclasses__():
            monkeypatch.setattr(cls, "__init__", refuse)
        argv = (command, "-n", "4", "-b", "10", "-k", "6", "--allow-leading-zero")
        if builds:  # the oracle rebuilds every hit, so the guard is live
            with pytest.raises(AssertionError, match="built a DigitString"):
                run_cli(capsys, *argv)
        else:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and out.count("\n") == 171

    def test_json_lines_round_trip(self, capsys):
        from permutiple.serialize import record_from_json

        code, out, _ = run_cli(capsys, "find", "-n", "4", "-b", "10", "--length", "4")
        assert code == 0
        for line in out.strip().splitlines():
            record = record_from_json(line)
            assert record.value() == json.loads(line)["value"]
