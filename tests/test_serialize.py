import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permutiple import (
    BFileError,
    InvariantError,
    Permutation,
    SeedError,
    brute_force_oracle,
    build_mother_graph,
    build_state_graph,
    find_permutiples,
    verify_permutiple,
)
from permutiple import digits as digits_module
from permutiple import search
from permutiple.cli import main
from permutiple.digits import build_record, check_equation, smallest_bijection
from permutiple.errors import ParameterError
from permutiple.machine import build_state_multigraph
from permutiple.search import walk_records
from permutiple.serialize import (
    format_equation,
    graph_to_dot,
    graph_to_json,
    graph_to_text,
    parse_bfile,
    parse_seed,
    record_from_json,
    record_to_json,
    record_to_text,
    seed_to_record,
)

from helpers import (
    WALK_FAULTS,
    inject_walk_fault,
    make_record,
    one_walk_plan,
    reference_digit_graph_to_dot,
    reference_digit_graph_to_json,
    reference_digit_graph_to_text,
    reference_record_to_json,
    reference_record_to_text,
    reference_seed_to_record,
    reference_state_graph_to_dot,
    reference_state_graph_to_json,
    reference_state_graph_to_text,
    reference_state_multigraph_to_dot,
    reference_state_multigraph_to_json,
    reference_state_multigraph_to_text,
)

REFERENCE = {"json": reference_record_to_json, "text": reference_record_to_text}


@st.composite
def seed_texts(draw):
    """Seeds from search results, each kept or mutated: a digit of either
    side changed, two preimage digits swapped (the multisets still agree),
    or a multiplier in or out of 1 < n < b.  Digits are written bare up to
    base 10 and comma-separated beyond."""
    base = draw(st.integers(3, 12))
    n, k = draw(st.integers(2, base - 1)), draw(st.integers(1, 4))
    records = [r.record for r in find_permutiples(n, base, k, True)]
    record = draw(st.sampled_from(records))
    lhs, rhs = list(record.digits.display), list(record.preimage.display)
    mutation = draw(st.sampled_from(["none", "lhs", "rhs", "swap", "multiplier"]))
    position = draw(st.integers(0, k - 1))
    if mutation == "lhs":
        lhs[position] = draw(st.integers(0, base - 1))
    elif mutation == "rhs":
        rhs[position] = draw(st.integers(0, base - 1))
    elif mutation == "swap":
        other = draw(st.integers(0, k - 1))
        rhs[position], rhs[other] = rhs[other], rhs[position]
    elif mutation == "multiplier":
        n = draw(st.sampled_from([0, 1, base, base + 1, *range(2, base)]))
    sep = "" if base <= 10 else ","
    return f"{n}x{base}:{sep.join(map(str, lhs))}={n}*{sep.join(map(str, rhs))}"


class TestSeeds:
    def test_parse_full_form(self):
        assert parse_seed("4x10:87912=4*21978") == (
            4, 10, (8, 7, 9, 1, 2), (2, 1, 9, 7, 8),
        )

    def test_parse_with_spaces_and_default_base(self):
        assert parse_seed("87912 = 4 * 21978", default_base=10) == (
            4, 10, (8, 7, 9, 1, 2), (2, 1, 9, 7, 8),
        )

    def test_comma_form_for_wide_bases(self):
        n, b, lhs, rhs = parse_seed("5x12:11,0,2=5*2,2,10")
        assert (n, b) == (5, 12)
        assert lhs == (11, 0, 2)
        assert rhs == (2, 2, 10)

    def test_round_trip(self):
        record = make_record(4, 10, (8, 6, 7, 1, 2), (2, 1, 6, 7, 8))
        assert seed_to_record(format_equation(record)).key == record.key

    def test_errors(self):
        with pytest.raises(SeedError):
            parse_seed("3x10:12=4*21")  # multipliers disagree
        with pytest.raises(SeedError):
            parse_seed("87912=4*21978")  # no base anywhere
        with pytest.raises(SeedError):
            parse_seed("4x12:123=4*312")  # bare digits beyond base 10
        with pytest.raises(SeedError):
            parse_seed("4x10:12=4*215")  # length mismatch
        with pytest.raises(SeedError):
            parse_seed("nonsense")

    def test_non_permutiple_seed(self):
        assert seed_to_record("4x10:12345=4*12345") is None

    @settings(max_examples=60, deadline=None)
    @given(text=seed_texts())
    @example(text="4x10:87912=4*21978")
    @example(text="4x10:87912=4*21979")  # a wrong preimage
    @example(text="4x10:87913=4*21978")  # a wrong product
    @example(text="10x10:87912=10*21978")  # n = b on equal multisets: raises
    @example(text="10x10:12=10*34")  # n = b on unequal multisets: None
    @example(text="1x10:12=1*12")
    @example(text="4x10:21=4*12")  # a false equation on equal multisets
    @example(text="4x10:871=4*2178")  # unequal lengths: the parser refuses both
    def test_matches_the_validating_path(self, text):
        def outcome(parse):
            try:
                record = parse(text)
            except (ParameterError, SeedError) as exc:
                return type(exc), str(exc)
            if record is None:
                return None
            return record, record.sigma, repr(record), record_to_json(record)

        assert outcome(seed_to_record) == outcome(reference_seed_to_record)


class TestRecordJson:
    def test_fields(self):
        record = make_record(4, 10, (8, 7, 9, 1, 2), (2, 1, 9, 7, 8))
        payload = json.loads(record_to_json(record))
        assert payload["digits"] == [8, 7, 9, 1, 2]
        assert payload["preimage"] == [2, 1, 9, 7, 8]
        assert payload["carries"] == [0, 3, 3, 3, 0]
        assert payload["canonical"] is True
        assert payload["value"] == 87912
        assert "1->7" not in payload["class_edges"]  # pairs render as (d1,d2)
        assert "(1,7)" in payload["class_edges"]

    def test_round_trip(self):
        for row in [
            (4, 10, (8, 6, 7, 1, 2), (2, 1, 6, 7, 8)),
            (3, 4, (3, 1, 1, 0, 2, 2), (1, 0, 1, 2, 3, 2)),
        ]:
            record = make_record(*row)
            again = record_from_json(record_to_json(record))
            assert again == record

    @pytest.mark.parametrize(
        "change",
        [
            lambda line: "{}",
            lambda line: "[1]",
            lambda line: "not json",
            lambda line: line.replace('"digits":[8,7,9,1,2]', '"digits":"87912"'),
            lambda line: line.replace('"value":87912', '"value":1'),
            lambda line: line.replace('"value":87912', '"value":87912.0'),
            lambda line: line.replace('"preimage":[2,1,9,7,8]', '"preimage":[1,2,3,4,5]'),
            lambda line: line.replace('"canonical":true', '"canonical":false'),
            lambda line: line.replace('"canonical":true', '"canonical":1'),
            lambda line: re.sub(r'"class_edges":\[[^]]*\]', '"class_edges":[]', line),
            lambda line: line.replace('"base":10', '"base":10,"unknown":0'),
            lambda line: line.replace('"carries":[0,3,3,3,0]', '"carries":[0,3,3,3,1]'),
            lambda line: line.replace('"sigma":[4,3,2,1,0]', '"sigma":[4,3,2,1,1]'),
            lambda line: line.replace('"multiplier":4,', ''),
        ],
        ids=["empty", "list", "not-json", "digits-string", "value", "value-float", "preimage",
             "canonical", "canonical-int", "class-edges", "unknown-key", "carries", "sigma",
             "no-multiplier"],
    )
    def test_outside_input_is_refused(self, change):
        line = record_to_json(make_record(4, 10, (8, 7, 9, 1, 2), (2, 1, 9, 7, 8)))
        assert record_from_json(line).value() == 87912
        changed = change(line)
        assert changed != line
        with pytest.raises(ParameterError):
            record_from_json(changed)

    def test_derived_fields_may_be_left_out(self):
        record = make_record(4, 10, (8, 7, 9, 1, 2), (2, 1, 9, 7, 8))
        line = '{"base":10,"digits":[8,7,9,1,2],"multiplier":4,"sigma":[4,3,2,1,0]}'
        assert record_from_json(line) == record

    def test_text_form(self):
        record = make_record(4, 10, (8, 7, 9, 1, 2), (2, 1, 9, 7, 8))
        text = record_to_text(record)
        assert "(8,7,9,1,2)_10" in text
        assert "carries 0,3,3,3,0" in text


def _points(scan_limit=None):
    """(n, b, k) with n < b <= 16 and k <= 6; with ``scan_limit``, only the
    points whose integer scan visits at most that many strings."""
    def lengths(b):
        top = 6 if scan_limit is None else max(k for k in range(1, 7) if b**k <= scan_limit)
        return st.tuples(st.integers(2, b - 1), st.just(b), st.integers(1, top))

    return st.integers(3, 16).flatmap(lengths)


def _swapped_sigmas(record):
    """The record's equation under every sigma that is the record's followed
    by a swap of two positions holding the same digit; the library builds
    only the smallest sigma, so these reach the renderers' given-sigma path."""
    d, k = record.digits.digits, len(record)
    return [
        verify_permutiple(
            record.digits, Permutation.transposition(k, i, j).compose(record.sigma), record.multiplier
        )
        for i in range(k)
        for j in range(i + 1, k)
        if d[i] == d[j]
    ]


class TestLineBuilder:
    @settings(max_examples=40, deadline=None)
    @given(point=_points(), leading_zero=st.booleans(), fmt=st.sampled_from(["json", "text"]))
    @example(point=(5, 12, 5), leading_zero=True, fmt="json")
    @example(point=(2, 10, 6), leading_zero=False, fmt="text")
    def test_find_writes_the_reference_lines(self, point, leading_zero, fmt):
        n, b, k = point
        zeros = "--allow-leading-zero" if leading_zero else "--no-allow-leading-zero"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["find", "-n", str(n), "-b", str(b), "-k", str(k), zeros, "--format", fmt])
        records = walk_records(n, b, k, allow_leading_zero=leading_zero)
        assert code == 0
        assert out.getvalue() == "".join(REFERENCE[fmt](r) + "\n" for r in records)

    @settings(max_examples=40, deadline=None)
    @given(point=_points(scan_limit=20000), leading_zero=st.booleans())
    @example(point=(4, 12, 3), leading_zero=True)
    def test_record_renderers_match_the_reference(self, point, leading_zero):
        for record in brute_force_oracle(*point, leading_zero):
            for r in [record, *_swapped_sigmas(record)]:
                assert record_to_json(r) == reference_record_to_json(r)
                assert record_to_text(r) == reference_record_to_text(r)

    @pytest.mark.parametrize("point, leading_zero", [((4, 12, 3), True), ((3, 4, 6), False)])
    def test_renderers_write_a_given_sigma(self, point, leading_zero):
        records = brute_force_oracle(*point, leading_zero)
        swapped = [r for record in records for r in _swapped_sigmas(record)]
        smallest = [smallest_bijection(r.digits.digits, r.preimage.digits) for r in swapped]
        assert any(list(r.sigma.mapping) != m for r, m in zip(swapped, smallest))
        for r in swapped:
            assert record_to_json(r) == reference_record_to_json(r)
            assert record_to_text(r) == reference_record_to_text(r)

    @pytest.mark.parametrize("text", [False, True])
    @pytest.mark.parametrize("fault", WALK_FAULTS)
    def test_faulty_plans_are_refused(self, monkeypatch, fault, text):
        # the walk proves each walk before it yields it, so find writes the
        # walks before the fault and fails with the walk's message
        inject_walk_fault(monkeypatch, fault)
        render = record_to_text if text else record_to_json
        before = []
        with pytest.raises(InvariantError, match=WALK_FAULTS[fault]):
            for record in walk_records(4, 10, 5, allow_leading_zero=False):
                assert record == build_record(4, 10, record.digits.digits, record._preimage)
                before.append(render(record) + "\n")
        out, err = io.StringIO(), io.StringIO()
        fmt = "text" if text else "json"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["find", "-n", "4", "-b", "10", "-k", "5", "--format", fmt])
        assert (code, out.getvalue()) == (1, "".join(before))
        assert err.getvalue().startswith("error: ")
        assert re.search(WALK_FAULTS[fault], err.getvalue())

    # each case has a fixed id, so that rewording an error message or
    # dropping a case renames no case
    @pytest.mark.parametrize("text", [False, True])
    @pytest.mark.parametrize(
        "walk, message",
        [
            # n, b, digits and preimage of 87912 = 4 * 21978 with its two
            # lowest digits swapped: 4 * 8 ends in 2, not 1
            pytest.param((4, 10, (1, 2, 9, 7, 8), (8, 7, 9, 1, 2)), "recurrence",
                         id="walk0-recurrence"),
            # its units digit, and the preimage digit it maps to, raised to the base
            pytest.param((4, 10, (10, 1, 9, 7, 8), (8, 7, 9, 1, 10)), "out of range",
                         id="walk1-out of range"),
            # 4 * 82 = 328: the low digits rearrange 82, but 4 * 8 leaves carry
            # 3 where the walk ends at 0
            pytest.param((4, 10, (8, 2), (2, 8)), "4 \\* 8 \\+ 0 is not 10 \\* 0 \\+ 2",
                         id="walk3-end at 0"),
            # its units preimage digit, and the top digit, raised to the base
            pytest.param((4, 10, (2, 1, 9, 7, 10), (10, 7, 9, 1, 2)), "out of range",
                         id="walk4-out of range"),
            # 4 * 83002 = 332008: the low five digits rearrange 83002, with top carry 3
            pytest.param((4, 10, (8, 0, 0, 2, 3), (2, 0, 0, 3, 8)),
                         "4 \\* 8 \\+ 1 is not 10 \\* 0 \\+ 3", id="walk6-top carry 3"),
        ],
    )
    def test_corrupted_walks_are_refused(self, monkeypatch, walk, message, text):
        # a plan whose rows hold one walk's positions: the walk proves them,
        # so find writes nothing and fails with the proof's message
        def kernel(n, b, digits, preimage):
            monkeypatch.setattr(search, "_plan", lambda *args: one_walk_plan(n, b, digits, preimage))

        n, b, digits, preimage = walk
        kernel(4, 10, (2, 1, 9, 7, 8), (8, 7, 9, 1, 2))
        records = list(walk_records(4, 10, 5))
        assert 87912 in [r.value() for r in records]
        assert records == [build_record(4, 10, r.digits.digits, r._preimage) for r in records]
        kernel(n, b, digits, preimage)
        with pytest.raises(InvariantError, match=message):
            list(walk_records(n, b, len(digits)))
        out, err = io.StringIO(), io.StringIO()
        fmt = "text" if text else "json"
        argv = ["find", "-n", str(n), "-b", str(b), "-k", str(len(digits)), "--format", fmt]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue().startswith("error: ") and re.search(message, err.getvalue())

    def test_each_equation_is_proved_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return check_equation(*args)

        monkeypatch.setattr(digits_module, "check_equation", counting)

        def lines(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(list(argv)) == 0
            return out.getvalue().splitlines()

        # every q whose five-digit multiple 4q rearranges its digits
        hits = [q for q in range(25000) if sorted(f"{4 * q:05d}") == sorted(f"{q:05d}")]
        canonical = [q for q in hits if 4 * q >= 10000]
        assert len(hits) > len(canonical) > 1
        # find's walk proves each of them as it finds it, and nothing
        # proves them again
        found = lines("find", "-n", "4", "-b", "10", "-k", "5")
        assert len(found) == len(canonical) and calls == []
        # the oracle proves every hit once, leading zeros too, and prints
        # the canonical ones
        calls.clear()
        assert lines("oracle", "-n", "4", "-b", "10", "-k", "5") == found
        assert len(calls) == len(hits)
        record = make_record(4, 10, (8, 7, 9, 1, 2), (2, 1, 9, 7, 8))
        calls.clear()
        assert record_to_json(record) in found
        assert "87912" in record_to_text(record).replace(",", "")
        assert calls == []


class TestGraphRendering:
    def test_mother_dot_arc_count(self):
        dot = graph_to_dot(build_mother_graph(3, 4), "mother")
        assert dot.count("->") == 12

    def test_dot_is_stable(self):
        graph = build_state_graph(4, 10)
        assert graph_to_dot(graph, "machine") == graph_to_dot(graph, "machine")

    def test_state_graph_json_labels(self):
        payload = json.loads(graph_to_json(build_state_graph(4, 10)))
        assert payload["edges"]["0->3"] == ["(2,8)", "(6,9)"]
        assert payload["states"] == [0, 1, 2, 3]

    def test_multigraph_json_counts(self):
        payload = json.loads(graph_to_json(build_state_multigraph(3, 4)))
        assert len(payload["edges"]) == 12

    def test_digit_graph_json(self):
        payload = json.loads(graph_to_json(build_mother_graph(3, 4)))
        assert "0->0" in payload["edges"]
        assert len(payload["edges"]) == 12

    # graph: its builder and its reference dot, json and text renderers
    GRAPHS = {
        "mother": (
            build_mother_graph,
            reference_digit_graph_to_dot,
            reference_digit_graph_to_json,
            reference_digit_graph_to_text,
        ),
        "state": (
            build_state_graph,
            reference_state_graph_to_dot,
            reference_state_graph_to_json,
            reference_state_graph_to_text,
        ),
        "multi": (
            build_state_multigraph,
            reference_state_multigraph_to_dot,
            reference_state_multigraph_to_json,
            reference_state_multigraph_to_text,
        ),
    }

    @pytest.mark.parametrize("kind", GRAPHS)
    def test_writers_match_the_per_graph_renderers(self, kind):
        # every 2 <= n < b <= 16: one writer per format serves all three graphs
        build, to_dot, to_json, to_text = self.GRAPHS[kind]
        for b in range(3, 17):
            for n in range(2, b):
                graph = build(n, b)
                name = f"{kind}_{n}_{b}"
                assert graph_to_dot(graph, name) == to_dot(graph, name), (n, b)
                assert graph_to_json(graph) == to_json(graph), (n, b)
                assert graph_to_text(graph) == to_text(graph), (n, b)


class TestBFile:
    def test_parse(self):
        lines = ["# comment", "1 5", "2 7  # trailing", "", "3 21"]
        assert parse_bfile(lines) == [(1, 5), (2, 7), (3, 21)]

    def test_decreasing_index(self):
        with pytest.raises(BFileError) as exc:
            parse_bfile(["1 5", "1 7"])
        assert exc.value.line == 2

    def test_malformed(self):
        with pytest.raises(BFileError) as exc:
            parse_bfile(["1 5", "oops"])
        assert exc.value.line == 2

    def test_empty(self):
        assert parse_bfile([]) == []
