import copy
from collections import Counter
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permutiple import (
    CycleMultiset,
    DigitCycle,
    ParameterError,
    WalkError,
    build_mother_graph,
    build_state_graph,
    build_state_multigraph,
    cycle_image,
    enumerate_cycles,
    transition,
    union_images,
    walk_states,
)
from permutiple.digits import carry_step
from permutiple.machine import StateGraph, StateMultigraph
from permutiple.search import _TAIL_RUNS, _plan, walk_records
from permutiple.serialize import format_equation, seed_to_record
from permutiple.symmetry import _fixing_images, dihedral_siblings

from helpers import (
    MACHINE_EDGES_3_4,
    MACHINE_EDGES_4_10,
    carries_by_value,
    empty_state_graph,
    empty_state_multigraph,
    make_record,
    multi_image,
    multiset_union,
    reference_strongly_connected,
    reference_transitions,
)


@lru_cache(maxsize=None)
def short_cycles(multiplier, base):
    return enumerate_cycles(build_mother_graph(multiplier, base), max_length=3)


class TestTransition:
    @pytest.mark.parametrize(
        "edge, expected",
        [((2, 8), (0, 3)), ((0, 0), (0, 0)), ((9, 9), (3, 3)), ((7, 6), (3, 2))],
    )
    def test_examples_4_10(self, edge, expected):
        assert transition(edge, 4, 10) == expected

    def test_non_mother_edge(self):
        with pytest.raises(ParameterError):
            transition((9, 1), 4, 10)

    def test_validity_sweep(self):
        # carry_step, transition, the mother graph and the division walk's
        # option rows all agree with a brute-force solve of the carry
        # equation; every mother edge yields carries in range, with exact
        # division, and every other pair, out-of-range digits included,
        # raises (ClassSpec.from_graph relies on this)
        for b in range(3, 25):
            for n in range(2, b):
                reference = reference_transitions(n, b)
                mother = build_mother_graph(n, b).edges
                assert mother == set(reference)
                options = _plan(n, b, 1, None, None, _TAIL_RUNS)[0]
                rows = {(d, p): (c, carry) for carry, row in enumerate(options) for d, p, c, _ in row}
                assert rows == reference
                for edge in product(range(-1, b + 1), repeat=2):
                    assert carry_step(n, b, *edge) == reference.get(edge)
                    if edge not in mother:
                        with pytest.raises(ParameterError):
                            transition(edge, n, b)
                        continue
                    c1, c2 = transition(edge, n, b)
                    assert (c1, c2) == reference[edge]
                    assert 0 <= c1 <= n - 1 and 0 <= c2 <= n - 1
                    d1, d2 = edge
                    assert b * c2 == n * d2 - d1 + c1


class TestStateGraph:
    def test_4_10_exact(self):
        graph = build_state_graph(4, 10)
        assert graph.states == frozenset(range(4))
        assert dict(graph.edges) == MACHINE_EDGES_4_10

    def test_3_4_exact(self):
        graph = build_state_graph(3, 4)
        assert graph.states == frozenset(range(3))
        assert dict(graph.edges) == MACHINE_EDGES_3_4

    def test_label_partition_sweep(self):
        # each mother edge appears exactly once among all label sets, and
        # no state is isolated: the label (c, 0) drives c -> 0
        for b in range(3, 17):
            for n in range(2, b):
                graph = build_state_graph(n, b)
                mother = build_mother_graph(n, b)
                assert graph.labels == mother.edges
                grouped = sorted(label for _, labels in graph.edges for label in labels)
                assert tuple(grouped) == mother.sorted_edges
                assert graph.states == frozenset(range(n))

    def test_label_uniqueness_enforced(self):
        # labels are a set: one given twice is one label, on its one edge
        graph = StateGraph(4, 10, [(8, 2), (8, 2), (2, 8)])
        assert graph == StateGraph(4, 10, {(2, 8), (8, 2)})
        assert graph.edges == (((0, 0), ((8, 2),)), ((0, 3), ((2, 8),)))

    def test_every_label_is_its_edges_transition(self):
        # the edges are computed from the labels, so each label is on the
        # edge it drives; a pair that drives none is refused, by name
        for n, b in [(2, 3), (3, 4), (4, 10), (5, 12)]:
            graph = build_state_graph(n, b)
            for (c1, c2), labels in graph.edges:
                assert all(carry_step(n, b, d, p) == (c1, c2) for d, p in labels)
        for label, message in [
            ((9, 1), "(9,1) is not a mother-graph edge for n=4, b=10"),
            ((10, 0), "edge (10,0) out of range for base 10"),
        ]:
            with pytest.raises(ParameterError) as caught:
                StateGraph(4, 10, [(2, 8), label])
            assert str(caught.value) == message

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            build_state_graph(1, 10)

    def test_strong_connectivity_sweep(self):
        for b in range(3, 13):
            for n in range(2, b):
                graph = build_state_graph(n, b)
                multigraph = build_state_multigraph(n, b)
                pairs = [pair for pair, _ in graph.edges]
                expected = reference_strongly_connected(graph.states, pairs)
                assert graph.is_strongly_connected() == expected, (n, b)
                expected = reference_strongly_connected(multigraph.states, pairs)
                assert multigraph.is_strongly_connected() == expected, (n, b)


class TestStateMultigraph:
    def test_edge_counts(self):
        assert len(build_state_multigraph(4, 10).edges) == 40
        assert len(build_state_multigraph(3, 4).edges) == 12

    def test_projection_recovers_mother(self):
        for n, b in [(2, 3), (3, 4), (4, 10)]:
            mg = build_state_multigraph(n, b)
            labels = tuple(sorted(label for _, _, label in mg.edges))
            assert labels == build_mother_graph(n, b).sorted_edges

    def test_transition_equation_enforced(self):
        # each triple is the transition its label drives, repeats kept
        multigraph = StateMultigraph(4, 10, [(2, 8), (8, 2), (2, 8)])
        assert multigraph.edges == ((0, 0, (8, 2)), (0, 3, (2, 8)), (0, 3, (2, 8)))
        assert multigraph.labels == ((2, 8), (2, 8), (8, 2))
        # (0, 9) solves the equation only from state 4, not below n = 4, and
        # (12, 3) only with digit 12, not below b = 10: neither is an edge
        for label, message in [
            ((0, 9), "(0,9) is not a mother-graph edge for n=4, b=10"),
            ((12, 3), "edge (12,3) out of range for base 10"),
        ]:
            with pytest.raises(ParameterError) as caught:
                StateMultigraph(4, 10, [label])
            assert str(caught.value) == message

    def test_states_are_the_ends_of_its_edges(self):
        # a slot filled at construction, as a StateGraph's is, and rebuilt
        # by a copy
        for labels in [[], [(2, 8), (8, 2), (2, 8)], [(1, 7), (7, 1), (9, 9)]]:
            multigraph = StateMultigraph(4, 10, labels)
            ends = frozenset(c for c1, c2, _ in multigraph.edges for c in (c1, c2))
            assert multigraph.states == ends == StateGraph(4, 10, labels).states
            assert type(multigraph.states) is frozenset
            assert copy.deepcopy(multigraph).states == ends
        for b in range(3, 11):
            for n in range(2, b):
                assert build_state_multigraph(n, b).states == frozenset(range(n))


class TestCycleImages:
    def test_loop_cycle(self):
        image = cycle_image(DigitCycle(10, (9,)), 4, 10)
        assert image.states == frozenset({3})
        assert dict(image.edges) == {(3, 3): ((9, 9),)}

    def test_two_cycle(self):
        image = cycle_image(DigitCycle(10, (2, 8)), 4, 10)
        assert image.states == frozenset({0, 3})
        assert dict(image.edges) == {(0, 0): ((8, 2),), (0, 3): ((2, 8),)}

    def test_other_two_cycle(self):
        image = cycle_image(DigitCycle(10, (1, 7)), 4, 10)
        assert dict(image.edges) == {(3, 3): ((1, 7),), (3, 0): ((7, 1),)}

    def test_three_cycle(self):
        image = cycle_image(DigitCycle(10, (1, 7, 6)), 4, 10)
        assert image.states == frozenset({0, 2, 3})
        assert dict(image.edges) == {
            (3, 3): ((1, 7),),
            (3, 2): ((7, 6),),
            (2, 0): ((6, 1),),
        }

    def test_multi_image_singleton(self):
        image = multi_image(DigitCycle(10, (9,)), 4, 10)
        assert image.edges == ((3, 3, (9, 9)),)

    def test_non_mother_cycle_rejected(self):
        with pytest.raises(ParameterError):
            cycle_image(DigitCycle(10, (9, 1)), 4, 10)


class TestUnions:
    def test_image_union_of_reversal_class(self):
        parts = [
            cycle_image(DigitCycle(10, vs), 4, 10) for vs in [(9,), (2, 8), (1, 7)]
        ]
        union = union_images(parts)
        assert union.states == frozenset({0, 3})
        assert dict(union.edges) == {
            (0, 0): ((8, 2),),
            (0, 3): ((2, 8),),
            (3, 0): ((7, 1),),
            (3, 3): ((1, 7), (9, 9)),
        }

    def test_multiset_union_repeats(self):
        images = {vs: multi_image(DigitCycle(10, vs), 4, 10) for vs in [(9,), (2, 8), (1, 7)]}
        union = multiset_union(
            [images[(9,)], images[(2, 8)], images[(2, 8)], images[(1, 7)], images[(1, 7)]]
        )
        assert sorted(Counter(union.edges).items()) == [
            ((0, 0, (8, 2)), 2),
            ((0, 3, (2, 8)), 2),
            ((3, 0, (7, 1)), 2),
            ((3, 3, (1, 7)), 2),
            ((3, 3, (9, 9)), 1),
        ]

    def test_multiset_union_six_triples(self):
        images = {vs: multi_image(DigitCycle(10, vs), 4, 10) for vs in [(2, 8), (1, 7)]}
        union = multiset_union([images[(2, 8)], images[(2, 8)], images[(1, 7)]])
        assert union.edges == (
            (0, 0, (8, 2)),
            (0, 0, (8, 2)),
            (0, 3, (2, 8)),
            (0, 3, (2, 8)),
            (3, 0, (7, 1)),
            (3, 3, (1, 7)),
        )

    def test_union_with_empty_is_identity(self):
        image = cycle_image(DigitCycle(10, (2, 8)), 4, 10)
        assert union_images([image, empty_state_graph(4, 10)]) == image
        mimage = multi_image(DigitCycle(10, (2, 8)), 4, 10)
        assert multiset_union([mimage, empty_state_multigraph(4, 10)]) == mimage

    @given(st.data())
    def test_edge_multi_image_of_a_cycle_multiset(self, data):
        b = data.draw(st.integers(3, 10))
        n = data.draw(st.integers(2, b - 1))
        chosen = data.draw(st.lists(st.sampled_from(short_cycles(n, b)), min_size=1, max_size=6))
        multiset = CycleMultiset.from_counts(Counter(chosen))
        parts = [
            multi_image(cycle, n, b)
            for cycle, mult in zip(multiset.cycles, multiset.multiplicities)
            for _ in range(mult)
        ]
        expected = multiset_union(parts)
        assert StateMultigraph(n, b, multiset.edge_counter().elements()) == expected
        assert multiset.multigraph(n, b) == expected

    def test_mixed_parameters_rejected(self):
        with pytest.raises(ParameterError):
            union_images([empty_state_graph(4, 10), empty_state_graph(3, 10)])
        with pytest.raises(ParameterError):
            multiset_union([empty_state_multigraph(4, 10), empty_state_multigraph(4, 9)])


class TestReflection:
    def test_full_graph_symmetric(self):
        graph = build_state_graph(4, 10)
        assert graph.reflect() == graph

    def test_cycle_image_reflection(self):
        image = cycle_image(DigitCycle(10, (1, 7, 6)), 4, 10)
        reflected = image.reflect()
        assert reflected.states == frozenset({0, 1, 3})
        assert dict(reflected.edges) == {
            (0, 0): ((8, 2),),
            (0, 1): ((2, 3),),
            (1, 3): ((3, 8),),
        }

    def test_commutes_with_cycle_reflection(self):
        for vs in [(9,), (2, 8), (1, 7, 6)]:
            cycle = DigitCycle(10, vs)
            assert cycle_image(cycle, 4, 10).reflect() == cycle_image(
                cycle.reflect(), 4, 10
            )

    def test_involution(self):
        image = cycle_image(DigitCycle(10, (1, 7, 6)), 4, 10)
        assert image.reflect().reflect() == image
        mimage = multi_image(DigitCycle(10, (1, 7, 6)), 4, 10)
        assert mimage.reflect().reflect() == mimage

    def test_strong_connectivity_preserved(self):
        parts = [
            cycle_image(DigitCycle(10, vs), 4, 10) for vs in [(9,), (2, 8), (1, 7)]
        ]
        union = union_images(parts)
        assert union.is_strongly_connected()
        assert union.reflect().is_strongly_connected()

    def test_distributes_over_union(self):
        g1 = cycle_image(DigitCycle(10, (1, 7, 6)), 4, 10)
        g2 = cycle_image(DigitCycle(10, (2, 8)), 4, 10)
        assert union_images([g1, g2]).reflect() == union_images([g1.reflect(), g2.reflect()])


class TestWalkStates:
    def test_base_four_walk(self):
        inputs = ((2, 2), (2, 3), (0, 2), (1, 1), (1, 0), (3, 1))
        assert walk_states(inputs, 3, 4) == (0, 1, 2, 2, 1, 0, 0)

    def test_reflected_walk_rejected_at_start(self):
        # reflecting a walk moves its start to state n-1
        inputs = ((7, 1), (8, 2), (2, 3), (3, 8), (1, 7))
        with pytest.raises(WalkError) as exc:
            walk_states(inputs, 4, 10)
        assert exc.value.index == 0

    def test_nonzero_final_state(self):
        inputs = ((2, 8),)
        with pytest.raises(WalkError) as exc:
            walk_states(inputs, 4, 10)
        assert exc.value.index == 1

    def test_empty_walk(self):
        assert walk_states((), 4, 10) == (0,)

    def test_record_strings_walk_to_their_carries(self):
        # every way a record is made: verified, walked, as a sibling or a
        # fixing image, and parsed from a seed.  Its carries are the proof's;
        # the machine and prefix values find them independently
        records = [
            make_record(*row)
            for row in [
                (4, 10, (8, 7, 9, 1, 2), (2, 1, 9, 7, 8)),
                (4, 10, (8, 6, 7, 1, 2), (2, 1, 6, 7, 8)),
                (3, 4, (3, 1, 1, 0, 2, 2), (1, 0, 1, 2, 3, 2)),
            ]
        ]
        for point in [(4, 10, 7), (3, 4, 8), (2, 10, 7), (5, 12, 6)]:
            walked = list(walk_records(*point))
            assert walked
            records += walked
            for record in walked:
                records += dihedral_siblings(record)
                records += [image for _, image in _fixing_images(record)]
                records.append(seed_to_record(format_equation(record)))
        for record in records:
            n, b = record.multiplier, record.base
            assert walk_states(record.string, n, b) == record.carries
            assert record.carries == carries_by_value(
                n, b, record.digits.display, record.preimage.display
            )

    def test_non_mother_input_is_domain_error(self):
        with pytest.raises(ParameterError):
            walk_states(((9, 1),), 4, 10)
