import copy
import hashlib
import json
import pickle
import random
import re
import sys
from collections import Counter
from itertools import islice, product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permutiple import (
    ClassSpec,
    DigitCycle,
    DigitString,
    InfeasibleUnionError,
    InvariantError,
    MultisetMismatchError,
    ParameterError,
    Permutation,
    PermutipleRecord,
    ScanLimitError,
    WalkError,
    brute_force_oracle,
    build_mother_graph,
    check_feasible,
    class_reflection_exists,
    count_eulerian_circuits,
    decompose_into_cycles,
    dihedral_siblings,
    duplicate_label_factor,
    enumerate_class_members,
    eulerian_strings,
    find_permutiples,
    graph_of_permutiple,
    reflect_class,
    reflective_siblings,
    rotational_siblings,
    string_to_permutiple,
    symmetric_closure,
)
from permutiple import digits as digits_module
from permutiple import search
from permutiple.digits import build_record, check_equation, is_rearrangement, smallest_bijection
from permutiple.machine import StateMultigraph
from permutiple.search import feasible_unions, walk_records
from permutiple.serialize import seed_to_record
from permutiple.symmetry import _fixing_images, class_unions
from permutiple.value import Value

from helpers import (
    WALK_FAULTS,
    carries_by_value,
    cycle_combinations,
    distinct_orderings,
    division_walk,
    empty_state_multigraph,
    inject_walk_fault,
    is_permutiple_string,
    make_record,
    multi_image,
    multiset_union,
    reference_class_images,
    reference_class_members,
    reference_class_unions,
    reference_feasible_unions,
    reference_oracle,
    reference_records,
    reference_siblings,
    reference_strings,
    reference_walked_fixing_images,
    small_points,
)


def images_4_10():
    return {vs: multi_image(DigitCycle(10, vs), 4, 10) for vs in [(9,), (2, 8), (1, 7)]}


def balanced_nine_edge_union():
    im = images_4_10()
    return multiset_union([im[(9,)], im[(2, 8)], im[(2, 8)], im[(1, 7)], im[(1, 7)]])


def unbalanced_six_edge_union():
    im = images_4_10()
    return multiset_union([im[(2, 8)], im[(2, 8)], im[(1, 7)]])


class TestFeasibility:
    def test_nine_edge_union_feasible(self):
        assert check_feasible(balanced_nine_edge_union())

    def test_six_edge_union_infeasible(self):
        assert not check_feasible(unbalanced_six_edge_union())

    def test_empty_union_infeasible(self):
        assert not check_feasible(empty_state_multigraph(4, 10))

    def test_zero_state_required(self):
        loop_at_three = multi_image(DigitCycle(10, (9,)), 4, 10)
        assert not check_feasible(loop_at_three)


class TestEulerianStrings:
    def test_four_edge_union_exactly_two(self):
        im = images_4_10()
        delta = multiset_union([im[(2, 8)], im[(1, 7)]])
        assert eulerian_strings(delta) == [
            ((2, 8), (1, 7), (7, 1), (8, 2)),
            ((8, 2), (2, 8), (1, 7), (7, 1)),
        ]

    def test_five_edge_union_gives_conjugate_rows(self):
        im = images_4_10()
        delta = multiset_union([im[(9,)], im[(2, 8)], im[(1, 7)]])
        strings = eulerian_strings(delta)
        assert len(strings) == 4
        values = sorted(
            string_to_permutiple(s, 4, 10).record.value() for s in strings
        )
        assert values == [71928, 79128, 87192, 87912]

    def test_nine_edge_union_contains_known_string(self):
        strings = eulerian_strings(balanced_nine_edge_union())
        assert ((8, 2), (8, 2), (2, 8), (9, 9), (1, 7), (1, 7), (7, 1), (2, 8), (7, 1)) in strings
        assert len(strings) == 72

    def test_matches_exhaustive_ordering_search(self):
        im = images_4_10()
        delta = multiset_union([im[(9,)], im[(2, 8)], im[(1, 7)]])
        edges = [label for _, _, label in delta.edges]
        expected = [
            s for s in distinct_orderings(edges) if is_permutiple_string(s, 4, 10)
        ]
        assert eulerian_strings(delta) == expected

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleUnionError):
            eulerian_strings(unbalanced_six_edge_union())

    def test_circuit_longer_than_the_recursion_limit(self):
        size = sys.getrecursionlimit() + 100
        loops = StateMultigraph(4, 10, [(0, 0)] * size)
        assert eulerian_strings(loops) == [((0, 0),) * size]

    def test_infeasible_union_has_no_ordering(self):
        delta = unbalanced_six_edge_union()
        edges = [label for _, _, label in delta.edges]
        assert not any(
            is_permutiple_string(s, 4, 10) for s in distinct_orderings(edges)
        )

    def test_all_small_infeasible_unions_have_no_ordering(self):
        # feasibility is exactly the existence criterion: sweep every cycle
        # multiset with a small edge total and exhaust the infeasible ones
        from permutiple.graphs import build_mother_graph, enumerate_cycles
        from permutiple.search import CycleMultiset, check_feasible

        refuted = 0
        for n, b, total in [(3, 4, 4), (3, 4, 5), (4, 10, 4)]:
            inventory = enumerate_cycles(build_mother_graph(n, b), max_length=total)
            for counts in cycle_combinations(inventory, total):
                multiset = CycleMultiset.from_counts(counts)
                delta = multiset.multigraph(n, b)
                if check_feasible(delta):
                    assert eulerian_strings(delta)
                    continue
                edges = list(multiset.edge_counter().elements())
                assert not any(
                    is_permutiple_string(s, n, b) for s in distinct_orderings(edges)
                )
                refuted += 1
        assert refuted > 50


class TestStringToPermutiple:
    def test_nine_digit_example(self):
        s = ((8, 2), (8, 2), (2, 8), (9, 9), (1, 7), (1, 7), (7, 1), (2, 8), (7, 1))
        result = string_to_permutiple(s, 4, 10)
        assert result.record.digits.display == (7, 2, 7, 1, 1, 9, 2, 8, 8)
        assert result.record.preimage.display == (1, 8, 1, 7, 7, 9, 8, 2, 2)

    def test_other_nine_digit_example(self):
        s = ((8, 2), (2, 8), (1, 7), (7, 1), (2, 8), (9, 9), (1, 7), (7, 1), (8, 2))
        result = string_to_permutiple(s, 4, 10)
        assert result.record.digits.display == (8, 7, 1, 9, 2, 7, 1, 2, 8)
        assert result.record.preimage.display == (2, 1, 7, 9, 8, 1, 7, 8, 2)

    def test_zero_loop(self):
        result = string_to_permutiple(((0, 0),), 4, 10)
        assert result.record.value() == 0

    def test_unbalanced_accepted_string(self):
        # 0 -> 2 -> 0 is accepted but the component multisets differ
        with pytest.raises(MultisetMismatchError):
            string_to_permutiple(((0, 5), (2, 0)), 4, 10)

    def test_rejected_string(self):
        # (0, 5) moves carry 0 to carry 2 and the walk ends there
        with pytest.raises(WalkError):
            string_to_permutiple(((0, 5),), 4, 10)

    def test_cycle_multiset_matches_string(self):
        s = ((8, 2), (8, 2), (2, 8), (9, 9), (1, 7), (1, 7), (7, 1), (2, 8), (7, 1))
        result = string_to_permutiple(s, 4, 10)
        assert decompose_into_cycles(result.string, 10).edge_counter() == Counter(s)


class TestDecompose:
    def test_round_trip_on_records(self):
        for row in [
            (4, 10, (8, 7, 9, 1, 2), (2, 1, 9, 7, 8)),
            (4, 10, (7, 2, 7, 1, 1, 9, 2, 8, 8), (1, 8, 1, 7, 7, 9, 8, 2, 2)),
            (3, 4, (3, 1, 1, 0, 2, 2), (1, 0, 1, 2, 3, 2)),
        ]:
            record = make_record(*row)
            multiset = decompose_into_cycles(record.string, record.base)
            assert multiset.edge_counter() == Counter(record.string)

    def test_unbalanced_rejected(self):
        with pytest.raises(ParameterError):
            decompose_into_cycles([(1, 2)], 10)


class TestFindPermutiples:
    def test_4_10_5_includes_known(self):
        values = {r.record.value() for r in find_permutiples(4, 10, 5)}
        assert {87912, 78912, 86712, 87132, 71328} <= values

    def test_2_6_5_includes_base_six(self):
        values = {r.record.value() for r in find_permutiples(2, 6, 5)}
        assert make_record(2, 6, (4, 3, 5, 1, 2), (2, 1, 5, 3, 4)).value() in values

    def test_3_4_6_includes_base_four_family(self):
        keys = {r.record.digits.display for r in find_permutiples(3, 4, 6, True)}
        assert (3, 1, 1, 0, 2, 2) in keys
        assert (1, 1, 0, 2, 2, 3) in keys

    def test_matches_oracle_small(self):
        for n, b, top in [(2, 4, 6), (3, 4, 6), (2, 5, 5), (3, 5, 5), (4, 5, 5)]:
            for length in range(1, top + 1):
                for allow in (False, True):
                    found = {r.record.key for r in find_permutiples(n, b, length, allow)}
                    scanned = {r.key for r in brute_force_oracle(n, b, length, allow)}
                    assert found == scanned, (n, b, length, allow)

    def test_matches_oracle_across_bases(self):
        # short lengths, every multiplier, bases up to 12
        for b in range(4, 13):
            for n in range(2, b):
                for length in (2, 3, 4):
                    found = {r.record.key for r in find_permutiples(n, b, length, True)}
                    scanned = {r.key for r in brute_force_oracle(n, b, length, True)}
                    assert found == scanned, (n, b, length)

    def test_cache_is_bounded(self):
        assert isinstance(search._search.cache_info().maxsize, int)

    def test_cache_keeps_the_session_points_together(self):
        # the ten small searches a library session re-reads stay cached
        # together, and the cache holds no more results than its bound
        points = [(4, 10, 5), (3, 10, 5), (2, 10, 6), (5, 12, 4), (3, 4, 6)]
        search._search.cache_clear()
        first = [find_permutiples(*point, allow) for point in points for allow in (False, True)]
        again = [find_permutiples(*point, allow) for point in points for allow in (False, True)]
        info = search._search.cache_info()
        assert (info.hits, info.misses, info.currsize) == (10, 10, 10)
        assert again == first
        assert sum(map(len, first)) <= info.maxsize == search._CACHE_RECORDS

    def test_cache_is_bounded_by_results(self, monkeypatch):
        # 23, 19, 4, 58 and 23 results against a bound of 40
        monkeypatch.setattr(search, "_CACHE_RECORDS", 40)
        search._search.cache_clear()
        sizes = []
        for point in [(4, 10, 5), (3, 10, 5), (5, 12, 4), (3, 4, 6), (4, 10, 5)]:
            sizes.append(len(find_permutiples(*point, True)))
            assert sum(map(len, search._search.entries.values())) <= 40
        assert sizes == [23, 19, 4, 58, 23]
        # (3,4,6) is returned in full but not kept; (4,10,5) made way for
        # (3,10,5), and (3,10,5) for its second search
        assert list(search._search.entries) == [(5, 12, 4, True), (4, 10, 5, True)]
        assert search._search.cache_info().misses == 5
        search._search.cache_clear()

    def test_sorted_and_deterministic(self):
        first = find_permutiples(4, 10, 4, True)
        second = find_permutiples(4, 10, 4, True)
        assert [r.record.key for r in first] == [r.record.key for r in second]
        assert [r.record.key for r in first] == sorted(r.record.key for r in first)

    def test_every_result_decomposes(self):
        for result in find_permutiples(4, 10, 5, True):
            redone = decompose_into_cycles(result.string, 10)
            assert redone.edge_counter() == Counter(result.record.string)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            find_permutiples(1, 10, 3)
        with pytest.raises(ParameterError):
            find_permutiples(4, 10, 0)


def _no_tables(*args):
    raise AssertionError("signature tables built")


@st.composite
def oracle_points(draw):
    base = draw(st.integers(3, 12))
    top = max(k for k in range(1, 20) if base**k <= 2 * 10**5)
    return draw(st.integers(2, base - 1)), base, draw(st.integers(1, top))


class TestOracle:
    def test_4_10_5(self):
        values = {r.value() for r in brute_force_oracle(4, 10, 5)}
        assert {87912, 79128, 78912} <= values

    def test_9_10_5(self):
        values = {r.value() for r in brute_force_oracle(9, 10, 5)}
        assert 98901 in values

    def test_5_10_6(self):
        values = {r.value() for r in brute_force_oracle(5, 10, 6)}
        assert 714285 in values

    def test_scan_limit(self):
        with pytest.raises(ScanLimitError):
            brute_force_oracle(4, 10, 5, scan_limit=10**4)

    def test_lower_limit_refused_after_cached_scan(self):
        brute_force_oracle(3, 7, 3)
        with pytest.raises(ScanLimitError):
            brute_force_oracle(3, 7, 3, scan_limit=7**3 - 1)

    def test_scan_limit_checked_before_any_table(self, monkeypatch):
        monkeypatch.setattr(search, "_count_signatures", _no_tables)
        message = "scan of 10**5 digit strings exceeds the limit 10000"
        with pytest.raises(ScanLimitError, match=re.escape(message)):
            brute_force_oracle(4, 10, 5, scan_limit=10**4)

    def test_wide_signature_tables_refused(self, monkeypatch):
        # within the scan limit, but every signature would take 10**5 bits
        monkeypatch.setattr(search, "_count_signatures", _no_tables)
        with pytest.raises(ScanLimitError, match="signature tables"):
            brute_force_oracle(2, 10**5, 1)

    def test_every_hit_is_verified(self, monkeypatch):
        # each hit is proved by build_record
        calls = []

        def counting(multiplier, base, digits, preimage):
            calls.append(tuple(digits))
            return build_record(multiplier, base, digits, preimage)

        monkeypatch.setattr(search, "build_record", counting)
        records = brute_force_oracle(4, 10, 5, True)
        assert calls == [r.digits.digits for r in records]

    @settings(max_examples=25, deadline=None)
    @given(point=oracle_points())
    @example(point=(2, 10, 1))  # k = 1: the low table holds only the empty block
    @example(point=(11, 12, 1))
    @example(point=(3, 7, 5))  # odd k: blocks of 2 and 3 digits
    @example(point=(5, 12, 4))  # even k: blocks of 2 and 2 digits
    # gcd(n-1, b-1) > 1, so the scan steps by less than b-1
    @example(point=(4, 10, 5))
    @example(point=(7, 10, 5))
    @example(point=(5, 9, 5))
    @example(point=(3, 7, 6))
    def test_matches_reference_oracle(self, point):
        n, b, k = point
        every = reference_oracle(n, b, k, True)
        assert brute_force_oracle(n, b, k, True) == every
        assert brute_force_oracle(n, b, k, False) == [r for r in every if r.canonical]

    @settings(max_examples=25, deadline=None)
    @given(point=oracle_points())
    @example(point=(4, 10, 5))
    def test_every_hit_is_a_multiple_of_the_scan_step(self, point):
        # n*q and q share a digit sum, so (n-1)*q = 0 modulo b-1
        n, b, k = point
        step = (b - 1) // gcd(n - 1, b - 1)
        assert step >= 2
        assert all(r.preimage_value() % step == 0 for r in reference_oracle(n, b, k, True))


class TestCircuitCounts:
    def test_single_loop(self):
        delta = multi_image(DigitCycle(10, (0,)), 4, 10)
        assert count_eulerian_circuits(delta) == 1

    def test_four_edge_union(self):
        im = images_4_10()
        delta = multiset_union([im[(2, 8)], im[(1, 7)]])
        anchored = count_eulerian_circuits(delta)
        assert anchored * delta.out_degree(0) == len(eulerian_strings(delta)) * duplicate_label_factor(delta)
        assert anchored == 1

    def test_nine_edge_union(self):
        delta = balanced_nine_edge_union()
        anchored = count_eulerian_circuits(delta)
        strings = eulerian_strings(delta)
        assert anchored * delta.out_degree(0) == len(strings) * duplicate_label_factor(delta)

    def test_every_feasible_union_at_length_five(self):
        for _, delta in feasible_unions(4, 10, 5):
            anchored = count_eulerian_circuits(delta)
            strings = eulerian_strings(delta)
            assert strings, "feasible union produced no strings"
            assert anchored * delta.out_degree(0) == len(strings) * duplicate_label_factor(delta)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleUnionError):
            count_eulerian_circuits(unbalanced_six_edge_union())


# deeper points, where the dead-state memo, the tail table and a used-up
# pinned digit are all that cut the walk
DEEP_POINTS = [(2, 3, 10), (3, 4, 8), (4, 5, 7), (5, 6, 6), (4, 10, 6), (9, 10, 6)]


class TestWalkKernel:
    @settings(max_examples=30, deadline=None)
    @given(point=small_points(), data=st.data())
    def test_matches_reference_engine_and_oracle(self, point, data):
        # compared in order: the oracle scans values upwards and the
        # reference walk's records are sorted, while the kernel sorts nothing
        n, b, k = point
        mother = build_mother_graph(n, b).edges
        for allow in (False, True):
            records = [r.record for r in find_permutiples(n, b, k, allow)]
            assert records == reference_records(n, b, k, mother, allow_leading_zero=allow)
            assert records == brute_force_oracle(n, b, k, allow)
        results = find_permutiples(n, b, k, True)
        assert sorted(r.string for r in results) == reference_strings(n, b, k)
        assert {d for _, d in feasible_unions(n, b, k)} == {
            d for _, d in reference_feasible_unions(n, b, k)
        }
        record = data.draw(st.sampled_from(results)).record
        assert enumerate_class_members(record) == reference_class_members(record)
        edges = graph_of_permutiple(record).edges
        for allow in (False, True):
            assert enumerate_class_members(record, allow) == reference_records(
                n, b, k, edges, record.digits.digits, allow
            )
        assert {d for _, d in class_unions(record)} == {
            d for _, d in reference_class_unions(record)
        }
        # siblings and images built by rearranging, against re-walked strings
        assert reflective_siblings(record) == reference_siblings(record, reflect=True)
        assert rotational_siblings(record) == reference_siblings(record, reflect=False)
        assert _fixing_images(record) == reference_walked_fixing_images(record)
        spec = ClassSpec.from_record(record)
        assert spec.images == reference_class_images(n, spec.graph)
        if class_reflection_exists(spec):
            for derived in (reflect_class(spec), symmetric_closure(spec)):
                assert derived.images == reference_class_images(n, derived.graph)

    # level 1 holds exactly b runs, so a budget of 9 stops base 10 at h = 0
    @pytest.mark.parametrize("budget", [0, 1, 9, 50, None])
    @pytest.mark.parametrize("point", [(4, 10, 1), (4, 10, 5), (2, 10, 6), (3, 4, 7), (9, 10, 8)])
    def test_tail_table(self, point, budget):
        budget = search._TAIL_RUNS if budget is None else budget
        n, b, k = point
        width = 2 * k + 1
        weights = [(k + 1) ** d for d in range(b)]
        options = [[] for _ in range(n)]  # the kernel's unrestricted, unpinned rows
        for carry, row in enumerate(options):
            for d in range(b):
                p, c = divmod(b * carry + d, n)
                row.append((d, p, c, width**d - width**p))
        plan = search._plan(n, b, k, None, None, budget)
        assert plan.rows == tuple(map(tuple, options)) and plan.weights == weights
        h, table = plan.h, plan.tails
        assert 0 <= h <= k // 2 and type(table) is dict
        runs = [run for _, listed in table.values() for run in listed]
        assert h == 0 or len(runs) <= budget
        # one table keyed by code * n + c: the runs from each carry c
        tables = [{} for _ in range(n)]
        for key, bucket in table.items():
            code, carry = divmod(key, n)
            tables[carry][code] = bucket
        if h < k // 2:  # one level more would have exceeded the budget
            grown = sum(len(r) for row in options for o in row for _, r in tables[o[2]].values())
            assert grown > budget
        for carry, table in enumerate(tables):
            # every run of h digits from this carry to carry 0: its digits,
            # preimage and carries, least-significant first
            expected = []
            stack = [(carry, (), (), (carry,))]
            while stack:
                at, ds, ps, cs = stack.pop()
                if len(ds) < h:
                    stack.extend(
                        (c, (d,) + ds, (p,) + ps, (c,) + cs) for d, p, c, _ in reversed(options[at])
                    )
                elif at == 0:
                    expected.append((ds, ps, cs))
            assert sorted(r for _, listed in table.values() for r in listed) == sorted(expected)
            for code, (signature, listed) in table.items():
                for ds, ps, cs in listed:
                    assert len(ds) == len(ps) == h and len(cs) == h + 1
                    assert sum(width**d - width**p for d, p in zip(ds, ps)) == code
                    assert sum(weights[d] - weights[p] for d, p in zip(ds, ps)) == signature
                    # the carries are check_equation's, from c_0 = 0 up to c_h = carry
                    assert cs[0] == 0 and cs[-1] == carry
                    for j in range(h):
                        assert divmod(n * ps[j] + cs[j], b) == (cs[j + 1], ds[j])
                shown = [ds[::-1] for ds, _, _ in listed]
                assert shown == sorted(shown)

    # at (4,10,7) a budget of 9 stops the tail at h = 0, 50 at h = 1 (level
    # 1 holds 10 runs, level 2 100), and the default reaches h = k // 2 = 3
    @pytest.mark.parametrize("budget, height", [(9, 0), (50, 1), (None, 3)])
    def test_walks_are_tuples_of_ints(self, budget, height, monkeypatch):
        n, b, k = 4, 10, 7
        record = seed_to_record("4x10:0008712=4*0002178")
        calls = [(), (record.string, record.digits.digits)]
        expected = [list(division_walk(n, b, k, *args)) for args in calls]
        if budget is not None:
            monkeypatch.setattr(search, "_TAIL_RUNS", budget)
        assert search._plan(n, b, k, None, None, search._TAIL_RUNS).h == height
        for args, walks in zip(calls, expected):
            assert list(division_walk(n, b, k, *args)) == walks and walks
            for walk in walks:
                assert type(walk) is tuple and list(map(len, walk)) == [k, k, k + 1]
                for part in walk:
                    assert type(part) is tuple and all(type(x) is int for x in part)

    @pytest.mark.parametrize(
        "budget, deep",
        [
            *(pytest.param(budget, False, id=str(budget)) for budget in (0, 1, 50)),
            *(pytest.param(budget, True, id=f"deep-{budget}") for budget in (0, None)),
        ],
    )
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_tail_budgets_match_references(self, budget, deep, data):
        # the walk is the same with any tail height the budget leaves.  The
        # deep points draw nothing, so they run once, at the budget 0 (the
        # top walk spans every level) and at the default, each with up to
        # five class walks sampled with a fixed seed
        points = DEEP_POINTS if deep else [data.draw(small_points())]
        with pytest.MonkeyPatch.context() as patch:
            if budget is not None:
                patch.setattr(search, "_TAIL_RUNS", budget)
            for n, b, k in points:
                mother = build_mother_graph(n, b).edges
                walked, oracle = {}, {}
                for allow in (False, True):
                    walked[allow] = list(walk_records(n, b, k, allow_leading_zero=allow))
                    oracle[allow] = brute_force_oracle(n, b, k, allow)
                    assert walked[allow] == oracle[allow]
                    assert walked[allow] == reference_records(
                        n, b, k, mother, allow_leading_zero=allow
                    )
                if deep:
                    seeds = random.Random(k).sample(walked[True], min(5, len(walked[True])))
                else:
                    seeds = [data.draw(st.sampled_from(walked[True]))]
                for record in seeds:
                    edges = graph_of_permutiple(record).edges
                    pinned = record.digits.digits
                    for allow in (False, True):
                        members = list(walk_records(n, b, k, edges, pinned, allow))
                        assert members == reference_records(n, b, k, edges, pinned, allow)
                        assert members == [
                            r for r in oracle[allow]
                            if sorted(r.digits.digits) == sorted(pinned)
                            and set(r.string) <= set(edges)
                        ]

    @pytest.mark.parametrize("budget", [0, 1, 50, None])
    @pytest.mark.parametrize("length", [1, 2])
    def test_short_canonical_walks(self, length, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(search, "_TAIL_RUNS", budget)
        for b in range(3, 11):
            for n in range(2, b):
                mother = build_mother_graph(n, b).edges
                records = list(walk_records(n, b, length, allow_leading_zero=False))
                assert records == reference_records(n, b, length, mother, allow_leading_zero=False)
                assert records == brute_force_oracle(n, b, length, False), (n, b)

    @settings(max_examples=30, deadline=None)
    @given(point=small_points(), data=st.data())
    def test_rows_from_the_edges(self, point, data):
        # every mother-graph edge is one transition, so rows built from the
        # edges equal the unrestricted rows, and a pair outside the mother
        # graph has no transition and changes nothing
        n, b, k = point
        mother = sorted(build_mother_graph(n, b).edges)
        outside = sorted(set(product(range(b), repeat=2)) - set(mother))
        extra = data.draw(st.lists(st.sampled_from(outside), max_size=6))
        for allow in (False, True):
            walks = list(division_walk(n, b, k, allow_leading_zero=allow))
            assert list(division_walk(n, b, k, mother, allow_leading_zero=allow)) == walks
            assert list(division_walk(n, b, k, mother + extra, allow_leading_zero=allow)) == walks
        digits, preimage, _ = data.draw(st.sampled_from(walks))
        string = list(zip(digits, preimage))
        for allow in (False, True):
            assert list(division_walk(n, b, k, string + extra, digits, allow)) == list(
                division_walk(n, b, k, string, digits, allow)
            )

    def test_pairs_outside_the_mother_graph_are_dropped(self):
        # at (4,10), (5, 0) would leave carry 0 for carry 5 and (0, 9) would
        # leave carry 4 for carry 0; neither carry exists.  The rest hold a
        # digit out of range, yet solve b*c' + d = n*p + c with c' < 4 and
        # c < 4 ((0, -3) from c' = -1, which would index the last row)
        n, b, k = 4, 10, 5
        outside = [(5, 0), (0, 9), (13, 3), (-2, 2), (0, -3)]
        mother = sorted(build_mother_graph(n, b).edges)
        for allow in (False, True):
            walks = list(division_walk(n, b, k, allow_leading_zero=allow))
            assert list(division_walk(n, b, k, mother + outside, allow_leading_zero=allow)) == walks
        record = seed_to_record("4x10:87912=4*21978")
        digits = record.digits.digits
        members = list(walk_records(n, b, k, [*record.string, *outside], digits))
        assert members == enumerate_class_members(record)
        assert list(walk_records(n, b, k, outside, digits)) == []

    def test_class_walk_builds_no_digit_graph(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"built a {type(self).__name__}")

        record = seed_to_record("4x10:0008712=4*0002178")
        members = enumerate_class_members(record)
        for cls in Value.__subclasses__():
            monkeypatch.setattr(cls, "__init__", refuse)
        assert enumerate_class_members(record) == members
        with pytest.raises(AssertionError, match="built a DigitGraph"):  # the guard is live
            graph_of_permutiple(record)

    def test_pinned_digits_outside_the_edges(self):
        assert list(walk_records(4, 10, 2, [(0, 0)], (0, 1))) == []

    def test_pinned_length_mismatch(self):
        with pytest.raises(ParameterError, match=r"^2 pinned digits for length 3$"):
            list(walk_records(4, 10, 3, [(0, 0)], (0, 0)))

    def test_zero_length(self):
        with pytest.raises(ParameterError, match=r"^length must be at least 1; got 0$"):
            list(walk_records(4, 10, 0))

    def test_long_class_walk_stays_small(self, monkeypatch):
        # 4 x 21(9^56)78 = 87(9^56)12 pins each digit but 9 to one use, so a
        # used-up pinned digit leaves a few states a depth; the memo alone
        # would keep about depth**3 / 6.  The walk calls iter once per push
        k = 60
        record = seed_to_record(f"4x10:87{'9' * (k - 4)}12=4*21{'9' * (k - 4)}78")
        edges = graph_of_permutiple(record).edges
        pushed = []

        def counting_iter(options):
            pushed.append(options)
            return iter(options)

        monkeypatch.setattr(search, "iter", counting_iter, raising=False)
        members = list(walk_records(4, 10, k, edges, record.digits.digits))
        monkeypatch.undo()
        assert members == reference_records(4, 10, k, edges, record.digits.digits)
        assert record in members and len(pushed) < k * k

    def test_depth_beyond_the_recursion_limit(self):
        # an explicit stack: 3000 steps, past the interpreter's default limit
        records = list(walk_records(4, 10, 3000, [(0, 0)], (0,) * 3000))
        assert [r.string for r in records] == [((0, 0),) * 3000]
        assert records[0].carries == (0,) * 3001


def assert_walks_are_proved(n, b, k, *args):
    """Every walk of ``division_walk(n, b, k, *args)`` equals, carries
    included, the walk :func:`build_record` proves from its digits and
    preimage, and the record :func:`walk_records` makes of it equals that
    record, its preimage and carries included, with sigma left unset.
    Returns the walks."""
    walks = list(division_walk(n, b, k, *args))
    records = list(walk_records(n, b, k, *args))
    assert len(records) == len(walks)
    for walk, record in zip(walks, records):
        proved = build_record(n, b, *walk[:2])
        assert walk == (proved.digits.digits, proved._preimage, proved.carries)
        assert all(type(part) is tuple for part in walk)
        assert (record.digits.digits, record._preimage, record.carries) == walk
        assert not sigma_is_read(record)
        assert record == proved
    return walks


class TestWalkProof:
    @settings(max_examples=30, deadline=None)
    @given(point=small_points(), data=st.data())
    def test_walks_are_the_walks_build_record_proves(self, point, data):
        # at the tail heights three budgets leave: none, the b runs of
        # level 1 (below k // 2 once k >= 4), and the default
        n, b, k = point
        seed = None
        for budget in (0, b, None):
            with pytest.MonkeyPatch.context() as patch:
                if budget is not None:
                    patch.setattr(search, "_TAIL_RUNS", budget)
                search._plan.cache_clear()
                for allow in (True, False):
                    walks = assert_walks_are_proved(n, b, k, None, None, allow)
                    if seed is None:  # zero-led walks allowed, so 0 = n * 0 is one
                        seed = data.draw(st.sampled_from(walks))
                    digits, preimage, _ = seed
                    string = tuple(zip(digits, preimage))
                    assert_walks_are_proved(n, b, k, string, digits, allow)

    # at (4,10,7) a budget of 9 leaves h = 0, 50 leaves h = 1 and the
    # default h = k // 2 = 3
    @pytest.mark.parametrize("budget, height", [(9, 0), (50, 1), (None, 3)])
    @pytest.mark.parametrize("seed", ["4x10:0008712=4*0002178", "4x10:8799912=4*2199978"])
    def test_class_walks_are_the_walks_build_record_proves(self, seed, budget, height,
                                                           monkeypatch):
        if budget is not None:
            monkeypatch.setattr(search, "_TAIL_RUNS", budget)
        record = seed_to_record(seed)
        n, b, k = record.multiplier, record.base, len(record)
        assert search._plan(n, b, k, None, None, search._TAIL_RUNS).h == height
        for allow in (False, True):
            assert assert_walks_are_proved(n, b, k, None, None, allow)
            members = assert_walks_are_proved(n, b, k, record.string, record.digits.digits, allow)
            assert (allow or record.canonical) == (record.digits.digits in [m[0] for m in members])

    @pytest.mark.parametrize("fault", WALK_FAULTS)
    def test_a_faulty_plan_is_refused_cold_and_warm(self, fault, monkeypatch):
        good = cold_walks(4, 10, 5)
        search._plan.cache_clear()
        inject_walk_fault(monkeypatch, fault)
        if not fault.startswith("cached"):
            assert search._plan.cache_info().currsize == 0  # the first call is cold
        for _ in range(2):  # and the second warm
            with pytest.raises(InvariantError, match=WALK_FAULTS[fault]):
                list(walk_records(4, 10, 5))
            with pytest.raises(InvariantError, match=WALK_FAULTS[fault]):
                list(division_walk(4, 10, 5))
        # a table refused as it is built is never kept; one whose runs are
        # refused at the join is, and every call refuses it again
        built = fault in ("option-row", "tail-digit", "run-dropped")
        assert search._plan.cache_info().currsize == (0 if built else 1)
        monkeypatch.undo()
        search._plan.cache_clear()
        assert cold_walks(4, 10, 5) == good


# every 2 <= n < b <= 8 with 1 <= k <= 6: each plan lists its tops
WALK_GRID = [(n, b, k) for b in range(3, 9) for n in range(2, b) for k in range(1, 7)]
POOL = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "pool.json"


def walk_digest(points) -> str:
    """The sha256 of every walk at ``points``, canonical ones first, then
    with zero-led ones, each as (display digits, display preimage,
    carries) and each call closed by ``|``."""
    digest = hashlib.sha256()
    for n, b, k in points:
        for allow in (False, True):
            for record in walk_records(n, b, k, allow_leading_zero=allow):
                digest.update(repr((record.key, record.carries)).encode())
            digest.update(b"|")
    return digest.hexdigest()


class TestWalkDigest:
    # fixed digests: any change to the walks, their order, their carries or
    # which of them a canonical call skips changes one
    @pytest.mark.parametrize(
        "points, listed, expected",
        [
            pytest.param(WALK_GRID, True,
                         "ebc4ac1d1c332b5c69eba0de23360c2c7589dadc1ce6bb5d0fbdd1a7e6d4e00b",
                         id="grid"),
            pytest.param([(4, 10, 7), (3, 4, 9)], True,
                         "fc82cb7ec06df2119731eafef26689ad385623be6f9765dd9796284d8625f929",
                         id="listed"),
            pytest.param([(2, 10, 8), (4, 10, 9)], False,
                         "d3b9b030b1d3d5eeaa635d642df4217b1eee458712d26a08727d82543c4ba9d0",
                         id="streamed"),
        ],
    )
    def test_the_walks_keep_their_digest(self, points, listed, expected):
        assert walk_digest(points) == expected
        for n, b, k in points:
            plan = search._plan(n, b, k, None, None, search._TAIL_RUNS)
            assert (plan.tops is not None) == listed

    def test_the_plans_keep_their_shape(self):
        # fixed digests of (h, size, whether the tops stream, zero_led) of
        # every unpinned plan with 2 <= n < b <= 10 and 1 <= k <= 8, and of
        # the class plan of every record of the benchmark's pool: any change
        # to the tail height, the listing choice or the size changes one
        grid = [(n, b, k, None, None)
                for b in range(3, 11) for n in range(2, b) for k in range(1, 9)]
        pool = json.loads(POOL.read_text(encoding="utf-8"))
        records = [seed_to_record(seed) for key in sorted(pool) for seed in pool[key]]
        classes = [(r.multiplier, r.base, len(r), tuple(sorted(set(r.string))),
                    tuple(sorted(r.digits.digits))) for r in records]
        for calls, expected in [
            (grid, "e083c6b9e3719264585cde38cca9fc90585643a8275355847256e4e4b070ca1f"),
            (classes, "7aa3f35619967459aced98083f1f2f03a5d0cb0020f968931d2abc76d319182d"),
        ]:
            digest = hashlib.sha256()
            for args in calls:
                plan = search._plan(*args, search._TAIL_RUNS)
                digest.update(repr((plan.h, plan.size, plan.tops is None, plan.zero_led)).encode())
            assert digest.hexdigest() == expected
        assert (len(grid), len(classes)) == (288, 2794)

    def test_the_zero_led_tops_come_first(self):
        # the tops the zero root leads are a prefix of every listed plan,
        # so a canonical call starts after them
        seeds = ["4x10:0008712=4*0002178", "3x4:00020313=3*00002331"]
        records = [seed_to_record(seed) for seed in seeds]
        plans = [search._plan(n, b, k, None, None, search._TAIL_RUNS)
                 for n, b, k in WALK_GRID + [(4, 10, 7), (3, 4, 9)]]
        plans += [
            search._plan(r.multiplier, r.base, len(r), tuple(sorted(set(r.string))),
                         tuple(sorted(r.digits.digits)), search._TAIL_RUNS)
            for r in records
        ]
        for plan in plans:
            assert plan.tops is not None
            zero_led = tuple(top for top in plan.tops if top[2][-1] == 0)
            assert plan.tops[:plan.zero_led] == zero_led
        assert all(plan.zero_led for plan in plans[-2:])


def cold_walks(*args):
    """The walks of a call made with an empty plan cache."""
    search._plan.cache_clear()
    return list(division_walk(*args))


def held():
    """The plan cache's holdings, in the units of its bound."""
    return sum(plan.size for plan in search._plan.entries.values())


class TestWalkPlanCache:
    @settings(max_examples=30, deadline=None)
    @given(point=small_points(), data=st.data())
    def test_warm_walks_equal_cold_ones(self, point, data):
        # every call shape: the mother graph, edges, edges and pinned digits,
        # pinned digits alone, each with and without zero-led walks
        n, b, k = point
        digits, preimage, _ = data.draw(st.sampled_from(cold_walks(n, b, k)))
        string = tuple(zip(digits, preimage))
        shapes = [(None, None), (string, None), (string, digits), (None, digits)]
        calls = [
            (n, b, k, edges, pinned, allow) for edges, pinned in shapes for allow in (False, True)
        ]
        cold = [cold_walks(*args) for args in calls]
        search._plan.cache_clear()
        for _ in range(2):  # the first round fills the cache, the second reads it
            assert [list(division_walk(*args)) for args in calls] == cold
        # one plan per shape, whichever way zero-led walks are taken
        assert search._plan.cache_info()[:2] == (12, 4)
        # the pairs are keyed as a set, in any order and with repeats
        shuffled = data.draw(st.permutations(string + string))
        cold = cold_walks(n, b, k, string, digits)
        assert list(division_walk(n, b, k, shuffled, digits)) == cold

    @settings(max_examples=30, deadline=None)
    @given(point=small_points(), data=st.data())
    def test_streamed_tops_give_the_listed_walks(self, point, data):
        # every call shape of test_warm_walks_equal_cold_ones, walked with
        # the tops its plan lists, then with the cached plans made to list
        # none, so that each call walks its tops afresh
        n, b, k = point
        digits, preimage, _ = data.draw(st.sampled_from(cold_walks(n, b, k)))
        string = tuple(zip(digits, preimage))
        shapes = [(None, None), (string, None), (string, digits), (None, digits)]
        calls = [
            (n, b, k, edges, pinned, allow) for edges, pinned in shapes for allow in (False, True)
        ]
        search._plan.cache_clear()
        listed = [list(walk_records(*args)) for args in calls]
        assert all(plan.tops is not None for plan in search._plan.entries.values())
        for key, plan in search._plan.entries.items():
            search._plan.entries[key] = plan._replace(tops=None)
        streamed = [list(walk_records(*args)) for args in calls]
        assert streamed == listed
        assert search._plan.cache_info()[:2] == (12, 4)
        assert all(plan.tops is None for plan in search._plan.entries.values())
        # a canonical call starts after the zero root: its walks are the
        # allowed ones that lead with a nonzero digit, pinned or not
        for walks in (listed, streamed):
            for canonical, allowed in zip(walks[::2], walks[1::2]):
                assert canonical == [r for r in allowed if r.canonical]

    @pytest.mark.parametrize(
        "seed, point",
        [
            pytest.param(None, (4, 10, 7), id="4x10x7"),
            pytest.param(None, (3, 4, 8), id="3x4x8"),
            pytest.param(None, (5, 12, 6), id="5x12x6"),
            pytest.param("4x10:0008712=4*0002178", None, id="class-4x10:0008712"),
            pytest.param("3x4:00020313=3*00002331", None, id="class-3x4:00020313"),
        ],
    )
    def test_listed_tops_are_the_top_halves_of_the_walks(self, seed, point):
        # the plan lists, in order, the distinct top k - h digits of the
        # walks the forward reference finds, zero-led ones included, each
        # with the bucket of every run below it and the signature that
        # balances that bucket's
        if seed is None:
            n, b, k = point
            args, edges, pinned = point, build_mother_graph(n, b).edges, None
        else:
            record = seed_to_record(seed)
            n, b, k = record.multiplier, record.base, len(record)
            edges, pinned = record.string, record.digits.digits
            args = (n, b, k, edges, pinned)
        cold_walks(*args)
        (plan,) = search._plan.entries.values()
        h, weights, tails, tops = plan.h, plan.weights, plan.tails, plan.tops
        walks = [(r.digits.digits, r._preimage, r.carries)
                 for r in reference_records(n, b, k, edges, pinned)]
        expected = {(ds[h:], ps[h:], cs[h + 1:], cs[h]): None for ds, ps, cs in walks}
        assert [(hd, hp, hc, c) for _, c, hd, hp, hc, _ in tops] == list(expected)
        bottoms = {top: [] for top in expected}
        for ds, ps, cs in walks:
            bottoms[ds[h:], ps[h:], cs[h + 1:], cs[h]].append((ds[:h], ps[:h], cs[:h + 1]))
        for key, c, hd, hp, hc, signature in tops:
            assert signature == sum(weights[d] - weights[p] for d, p in zip(hd, hp))
            assert signature + tails[key][0] == 0
            assert list(tails[key][1]) == bottoms[hd, hp, hc, c]

    @pytest.mark.parametrize("seed", ["3x4:00020313=3*00002331", "4x10:0008712=4*0002178", None])
    def test_an_abandoned_walk_leaves_the_plan_intact(self, seed):
        if seed is None:  # the mother graph
            args = (3, 4, 8)
        else:
            record = seed_to_record(seed)
            n, b = record.multiplier, record.base
            args = (n, b, len(record), record.string, record.digits.digits)
        cold = cold_walks(*args)
        assert len(cold) > 3
        for taken in (1, 3):
            walk = division_walk(*args)
            assert list(islice(walk, taken)) == cold[:taken]
            walk.close()
            assert list(division_walk(*args)) == cold
        assert search._plan.cache_info()[:2] == (4, 1)

    @pytest.mark.parametrize("budget", [20, 50, 400, None])
    def test_plans_held_never_exceed_the_bound(self, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(search, "_TAIL_RUNS", budget)
        for n, b, k in [(4, 10, 6), (3, 4, 8), (5, 12, 6)]:
            records = list(walk_records(n, b, k))
            for record in records[:: max(1, len(records) // 20)]:
                assert list(walk_records(n, b, k, record.string, record.digits.digits))
                assert held() <= search._TAIL_RUNS
            assert held() <= search._TAIL_RUNS
        info = search._plan.cache_info()
        assert info.maxsize == search._TAIL_RUNS and info.currsize == len(search._plan.entries)
        assert info.currsize > 0

    def test_a_plan_beyond_the_bound_is_used_but_not_kept(self, monkeypatch):
        # (3,4,6) tables all 4**h runs of h digits down to carry 0, and its
        # 3 rows hold 12 options: a plan counts the larger of 4**h and 15,
        # plus the 31 live top halves of 6 - h = 3 digits when it lists
        # them.  It lists them when the 4**3 = 64 paths they are drawn from
        # fit beside the runs, at a budget of 128 but not 127.  The table
        # stops growing before a level passes the budget, so only the rows
        # can make a plan too large to keep
        cold = cold_walks(3, 4, 6)
        assert held() == 64 + 31
        for budget, kept in [(128, 95), (127, 64), (63, 16), (15, 15), (14, 0), (0, 0)]:
            monkeypatch.setattr(search, "_TAIL_RUNS", budget)
            search._plan.cache_clear()
            assert list(division_walk(3, 4, 6)) == cold
            assert held() == kept and search._plan.cache_info().misses == 1

    @pytest.mark.parametrize("point", [(4, 10, 7), (3, 4, 8), (5, 12, 6), (7, 60, 1)])
    def test_the_size_of_a_flat_table(self, point):
        # one table for the plan, keyed by code * n + c: divmod reads back
        # the code, negative ones included, and the carry the runs leave
        n, b, k = point
        plan = search._plan(n, b, k, None, None, search._TAIL_RUNS)
        options, h, tails, tops = plan.rows, plan.h, plan.tails, plan.tops
        assert type(tails) is dict and type(tops) is tuple  # each point lists its tops
        runs = sum(len(bucket) for _, bucket in tails.values())
        rows = len(options) + sum(map(len, options))
        assert plan.size == max(runs + len(tops), rows)
        assert (runs + len(tops) < rows) == (point == (7, 60, 1))
        steps = {(d, p): step for row in options for d, p, _, step in row}
        assert any(key < 0 for key in tails) == (h > 0)
        for key, (_, bucket) in tails.items():
            code, carry = divmod(key, n)
            for ds, ps, _ in bucket:
                assert sum(steps[pair] for pair in zip(ds, ps)) == code
                at = carry
                for j in reversed(range(h)):  # long division from the carry down to carry 0
                    quotient, at = divmod(b * at + ds[j], n)
                    assert quotient == ps[j]
                assert at == 0

    def test_rows_count_against_the_bound(self):
        # a one-digit walk tables one empty run but holds n rows of b
        # options each; counted by runs alone, 58 such plans of base 60 held
        # about 12 MB
        for n in range(2, 60):
            assert len(list(division_walk(n, 60, 1))) == len(brute_force_oracle(n, 60, 1, True))
            assert held() <= search._TAIL_RUNS
        assert 0 < search._plan.cache_info().currsize < 58

    @pytest.mark.parametrize("budget", [0, 1, 9, 50])
    def test_the_budget_is_in_the_key(self, budget, monkeypatch):
        # a plan built at the default budget is not reused under another:
        # the walk builds its tail table again, within the patched budget
        built = []

        def recording(*args):
            table = tails(*args)
            built.append((args[-1], sum(len(bucket[1]) for bucket in table.values())))
            return table

        tails = search._tails
        monkeypatch.setattr(search, "_tails", recording)
        record = seed_to_record("4x10:0008712=4*0002178")
        calls = [(4, 10, 6), (4, 10, 7, record.string, record.digits.digits)]
        expected = [list(division_walk(*args)) for args in calls]
        assert [h for h, _ in built] == [3, 3]  # each default table holds k // 2 digits
        monkeypatch.setattr(search, "_TAIL_RUNS", budget)
        assert [list(division_walk(*args)) for args in calls] == expected
        assert len(built) == 4 and search._plan.cache_info().misses == 4
        assert all(h == 0 or runs <= budget for h, runs in built[2:])

    def test_every_walk_is_built_on_warm_and_cold_calls(self, monkeypatch):
        # the plan's option rows are proved once per call, one divmod per
        # option, and once more when a cold call builds the tail table from
        # them; no record is proved a second time.  The cold call lists the
        # top halves with the plan, so the warm one pushes no frame
        record = seed_to_record("4x10:0008712=4*0002178")
        counts = proof_counts(monkeypatch)
        args = (4, 10, 7, record.string, record.digits.digits)
        cold = list(walk_records(*args))
        at_cold = dict(counts)
        counts.clear()
        warm = list(walk_records(*args))
        at_warm = dict(counts)
        assert warm == cold and len(cold) == 20
        assert search._plan.cache_info()[:2] == (1, 1)
        (plan,) = search._plan.entries.values()
        assert plan.h == 3 and plan.tops
        options = sum(map(len, plan.rows))
        assert options == 5
        frames = at_cold["iter"]  # one per pushed frame, the root included
        assert frames > 0
        assert at_warm == {"divmod": options}
        assert at_cold == {"divmod": 2 * options, "iter": frames, "tail": options}
        assert 0 < at_warm["divmod"] < len(cold) * 7  # fewer than proving each record takes


def proof_counts(monkeypatch) -> Counter:
    """Count what search proves: ``divmod``, which it calls only to prove an
    option of a plan's rows, ``iter``, which the walk calls once per frame
    it pushes (the root included), and under ``tail`` the options proved
    while a tail table is built.  Building a record through ``build_record`` or
    ``check_equation`` is refused."""
    counts: Counter = Counter()
    tails = search._tails

    def counted(name, function):
        def count(*args):
            counts[name] += 1
            return function(*args)
        return count

    def tabling(*args):
        before = counts["divmod"]
        result = tails(*args)
        counts["tail"] += counts["divmod"] - before
        return result

    def refuse(*args):
        raise AssertionError("a walk was proved again")

    monkeypatch.setattr(search, "divmod", counted("divmod", divmod), raising=False)
    monkeypatch.setattr(search, "iter", counted("iter", iter), raising=False)
    monkeypatch.setattr(search, "_tails", tabling)
    monkeypatch.setattr(search, "build_record", refuse)
    monkeypatch.setattr(digits_module, "check_equation", refuse)
    return counts


@st.composite
def builder_points(draw):
    base = draw(st.integers(3, 12))
    return draw(st.integers(2, base - 1)), base, draw(st.integers(1, 6))


def sigma_is_read(record):
    """Whether the record's sigma slot is set, read without deriving it."""
    try:
        PermutipleRecord.sigma.__get__(record)
    except AttributeError:
        return False
    return True


def assert_built_as_validated(build, n, b, digits, preimage):
    """``build()`` makes the record the validating constructors build.

    Its carries, and the validated record's, must be the ones derived from
    prefix values.  Each comparison runs on a fresh record, once before its sigma is read
    and once after.  A record the constructors build with another sigma
    that maps onto the same preimage, one swap of two equal digits away,
    is a different record.
    """
    carries = carries_by_value(n, b, digits[::-1], preimage[::-1])
    mapping = smallest_bijection(digits, preimage)
    validated = PermutipleRecord(n, DigitString(b, digits), Permutation(mapping))
    assert validated.carries == carries
    j = next((j for j in range(1, len(mapping)) if preimage[j] in preimage[:j]), None)
    swapped = None
    if j is not None:
        i = preimage.index(preimage[j])
        other = list(mapping)
        other[i], other[j] = other[j], other[i]
        swapped = PermutipleRecord(n, DigitString(b, digits), Permutation(other))
    for sigma_read in (False, True):
        def fresh():
            record = build()
            if sigma_read:
                assert record.sigma == validated.sigma
            assert sigma_is_read(record) == sigma_read
            return record

        # the readers of the stored preimage leave sigma as they found it
        record = fresh()
        assert record.carries == carries
        assert record.key == validated.key
        assert record.preimage == DigitString(b, preimage) == validated.preimage
        assert record.string == validated.string
        assert graph_of_permutiple(record) == graph_of_permutiple(validated)
        for fields in (record.digits.digits, record.carries, record.preimage.digits):
            assert type(fields) is tuple
        assert sigma_is_read(record) == sigma_read
        # the field-wise readers derive it
        record = fresh()
        assert record == validated and validated == record
        assert type(record.sigma.mapping) is tuple
        assert hash(fresh()) == hash(validated)
        assert repr(fresh()) == repr(validated)
        for copier in (lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, copy.copy):
            copied = copier(fresh())
            assert copied == validated and hash(copied) == hash(validated)
            assert repr(copied) == repr(validated)
        if swapped is not None:
            assert fresh() != swapped and swapped != fresh()
            assert repr(fresh()) != repr(swapped)


class TestBuildRecord:
    @settings(max_examples=30, deadline=None)
    @given(point=builder_points(), leading_zero=st.booleans(), data=st.data())
    def test_matches_the_validating_constructors(self, point, leading_zero, data):
        n, b, k = point
        records = []
        for digits, preimage, carries in division_walk(n, b, k, allow_leading_zero=leading_zero):
            def build(walk=(digits, preimage)):
                return build_record(n, b, *walk)

            assert_built_as_validated(build, n, b, digits, preimage)
            records.append(build())
            assert records[-1].carries == carries
        if not records:
            return
        for record in data.draw(st.lists(st.sampled_from(records), min_size=1, max_size=5)):
            # every sibling and fixing image, rebuilt fresh for each comparison
            builds = [lambda: dihedral_siblings(record),
                      lambda: [image for _, image in _fixing_images(record)]]
            for built in builds:
                for i, r in enumerate(built()):
                    assert_built_as_validated(lambda i=i, built=built: built()[i], n, b,
                                              r.digits.digits, r.preimage.digits)

    # each case has a fixed id, so that rewording an error message or
    # dropping a case renames no case
    @pytest.mark.parametrize(
        "walk, error, message",
        [
            # n, b, digits and preimage of 87912 = 4 * 21978 with its units
            # digit, and the preimage digit it maps to, raised to the base
            pytest.param((4, 10, (10, 1, 9, 7, 8), (8, 7, 9, 1, 10)),
                         ParameterError, "digit out of range for base 10",
                         id="walk0-ParameterError-digit out of range for base 10"),
            # the same pair lowered to -1
            pytest.param((4, 10, (-1, 1, 9, 7, 8), (8, 7, 9, 1, -1)),
                         ParameterError, "digit out of range for base 10",
                         id="walk1-ParameterError-digit out of range for base 10"),
            # its units preimage digit, and the top digit, raised to the base
            pytest.param((4, 10, (2, 1, 9, 7, 10), (10, 7, 9, 1, 2)),
                         ParameterError, "digit out of range for base 10",
                         id="walk2-ParameterError-digit out of range for base 10"),
            # a preimage digit raised to the base alone: the multisets differ
            # and that is tested first
            pytest.param((4, 10, (2, 1, 9, 7, 8), (8, 7, 9, 1, 10)),
                         MultisetMismatchError, "multisets differ",
                         id="walk3-MultisetMismatchError-multisets differ"),
            # digits 3 and 4 swapped: 4 * 1978 + 3 ends in 7, not 8
            pytest.param((4, 10, (2, 1, 9, 8, 7), (8, 7, 9, 1, 2)),
                         ParameterError, "violated at position 3",
                         id="walk4-ParameterError-violated at position 3"),
            # the two lowest digits swapped: 4 * 8 ends in 2, not 1
            pytest.param((4, 10, (1, 2, 9, 7, 8), (8, 7, 9, 1, 2)),
                         ParameterError, "recurrence",
                         id="walk5-ParameterError-recurrence"),
            # 4 * 82 = 328: the low digits rearrange 82, the top carry is 3
            pytest.param((4, 10, (8, 2), (2, 8)),
                         ParameterError, "end at 0",
                         id="walk6-ParameterError-end at 0"),
            # 4 * 83002 = 332008: the same at five digits
            pytest.param((4, 10, (8, 0, 0, 2, 3), (2, 0, 0, 3, 8)),
                         ParameterError, "top carry 3",
                         id="walk7-ParameterError-top carry 3"),
            # no digits at all
            pytest.param((4, 10, (), ()),
                         ParameterError, "k >= 1",
                         id="walk8-ParameterError-k >= 1"),
            # the multiplier equal to the base
            pytest.param((10, 10, (2, 1, 9, 7, 8), (8, 7, 9, 1, 2)),
                         ParameterError, "1 < n < base",
                         id="walk9-ParameterError-1 < n < base"),
            # 48 = 4 * 12: a true equation on an unbalanced pair of strings
            pytest.param((4, 10, (8, 4), (2, 1)),
                         MultisetMismatchError, "multisets differ",
                         id="walk10-MultisetMismatchError-multisets differ"),
        ],
    )
    def test_corrupted_walks_are_refused(self, walk, error, message):
        good = ((2, 1, 9, 7, 8), (8, 7, 9, 1, 2))
        assert (*good, (0, 3, 3, 3, 0, 0)) in division_walk(4, 10, 5)
        record = build_record(4, 10, *good)
        assert (record.value(), record.carries) == (87912, (0, 3, 3, 3, 0, 0))
        with pytest.raises(error, match=message):
            build_record(*walk)

    def test_each_class_member_is_proved_once(self, monkeypatch):
        calls = {"check_equation": 0, "is_rearrangement": 0, "smallest_bijection": 0,
                 "DigitString": 0, "Permutation": 0}

        def counting(name, function):
            def counted(*args):
                calls[name] += 1
                return function(*args)
            return counted

        record = seed_to_record("4x10:0008712=4*0002178")
        monkeypatch.setattr(
            digits_module, "check_equation", counting("check_equation", check_equation)
        )
        monkeypatch.setattr(
            digits_module, "is_rearrangement", counting("is_rearrangement", is_rearrangement)
        )
        monkeypatch.setattr(
            digits_module, "smallest_bijection", counting("smallest_bijection", smallest_bijection)
        )
        for cls in (DigitString, Permutation):
            monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))
        proved = []
        monkeypatch.setattr(
            search, "divmod", lambda *args: proved.append(args) or divmod(*args), raising=False
        )
        members = enumerate_class_members(record)
        assert len(members) == 20 and sum(not m.canonical for m in members) == 12
        # the walk proved them, each option of its rows once for the table
        # and once for the call, fewer positions than one proof of each
        # member would take; nothing proves them again
        assert 0 < len(proved) < 20 * 7
        assert calls == {"check_equation": 0, "is_rearrangement": 0, "smallest_bijection": 0,
                         "DigitString": 0, "Permutation": 0}
        # reading a member's preimage validates nothing again
        assert [m.preimage.value() * 4 for m in members] == [m.value() for m in members]
        assert calls["DigitString"] == 0
        # nor does reading its key, string or graph derive sigma
        assert all(m.key and m.string and graph_of_permutiple(m).edges for m in members)
        assert calls["smallest_bijection"] == 0
        # the first read of sigma derives it, once per member, and keeps it
        first = [m.sigma for m in members]
        assert calls["smallest_bijection"] == 20
        assert all(m.sigma is sigma for m, sigma in zip(members, first))
        assert calls == {"check_equation": 0, "is_rearrangement": 0, "smallest_bijection": 20,
                         "DigitString": 0, "Permutation": 0}
