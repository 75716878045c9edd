import sys
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permutiple import (
    DigitCycle,
    DigitGraph,
    ParameterError,
    build_mother_graph,
    enumerate_cycles,
    graph_of_permutiple,
    is_cycle_union,
)

from permutiple.graphs import strongly_connected

from helpers import (
    CONJUGATE_ROWS,
    MOTHER_EDGES_3_4,
    make_record,
    reference_cycle_union,
    reference_strongly_connected,
    transitive_closure,
)


def digit_graphs(max_base):
    """Any edge subset of the digits of a base up to ``max_base``."""
    return st.integers(min_value=2, max_value=max_base).flatmap(
        lambda b: st.builds(
            DigitGraph,
            st.just(b),
            st.frozensets(st.tuples(st.integers(0, b - 1), st.integers(0, b - 1))),
        )
    )


def ring(size):
    return [(v, (v + 1) % size) for v in range(size)]


# a ring far longer than the recursion limit: the walks must not recurse
RING_SIZE = 20_000


def brute_force_cycles(graph):
    """Independent cycle oracle: try every vertex arrangement (small graphs)."""
    vertices = sorted({v for edge in graph.edges for v in edge})
    found = set()
    for size in range(1, len(vertices) + 1):
        for combo in permutations(vertices, size):
            if combo[0] != min(combo):
                continue
            edges = [(combo[i], combo[(i + 1) % size]) for i in range(size)]
            if all(e in graph.edges for e in edges):
                found.add(combo)
    return sorted(found)


class TestMotherGraph:
    def test_4_10_membership(self):
        mother = build_mother_graph(4, 10)
        for edge in [(9, 9), (2, 8), (8, 2), (1, 7), (7, 1), (0, 0), (2, 3)]:
            assert edge in mother.edges
        assert (9, 1) not in mother.edges
        assert len(mother.edges) == 40
        for v in range(10):
            assert len([w for u, w in mother.edges if u == v]) == 4

    def test_3_4_exact(self):
        assert build_mother_graph(3, 4).edges == frozenset(MOTHER_EDGES_3_4)

    def test_2_3_spot_checks(self):
        mother = build_mother_graph(2, 3)
        assert (0, 0) in mother.edges
        assert (2, 1) in mother.edges

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            build_mother_graph(1, 10)
        with pytest.raises(ParameterError):
            build_mother_graph(10, 10)


class TestGraphOfPermutiple:
    def test_reversal_family(self):
        record = make_record(4, 10, (8, 7, 9, 1, 2), (2, 1, 9, 7, 8))
        assert graph_of_permutiple(record).edges == frozenset(
            {(9, 9), (2, 8), (8, 2), (1, 7), (7, 1)}
        )

    def test_mixed_family(self):
        record = make_record(4, 10, (8, 6, 7, 1, 2), (2, 1, 6, 7, 8))
        assert graph_of_permutiple(record).edges == frozenset(
            {(1, 7), (7, 6), (6, 1), (2, 8), (8, 2)}
        )

    def test_zero_record(self):
        record = make_record(4, 10, (0, 0), (0, 0))
        assert graph_of_permutiple(record).edges == frozenset({(0, 0)})

    def test_conjugates_share_graph(self):
        graphs = {
            graph_of_permutiple(make_record(*row)) for row in CONJUGATE_ROWS
        }
        assert len(graphs) == 1

    def test_subgraph_of_mother(self):
        mother = build_mother_graph(4, 10)
        for row in CONJUGATE_ROWS:
            assert graph_of_permutiple(make_record(*row)).edges <= mother.edges


class TestEnumerateCycles:
    def test_reversal_class_graph(self):
        graph = DigitGraph(10, {(9, 9), (2, 8), (8, 2), (1, 7), (7, 1)})
        cycles = enumerate_cycles(graph)
        assert [c.vertices for c in cycles] == [(1, 7), (2, 8), (9,)]

    def test_mixed_class_graph(self):
        graph = DigitGraph(10, {(1, 7), (7, 6), (6, 1), (2, 8), (8, 2)})
        cycles = enumerate_cycles(graph)
        assert [c.vertices for c in cycles] == [(1, 7, 6), (2, 8)]
        assert cycles[0].edges == ((1, 7), (7, 6), (6, 1))

    def test_edgeless(self):
        assert enumerate_cycles(DigitGraph(5, frozenset())) == []

    def test_ring_longer_than_the_recursion_limit(self):
        size = sys.getrecursionlimit() + 200
        ring = DigitGraph(size, frozenset((v, (v + 1) % size) for v in range(size)))
        assert [c.vertices for c in enumerate_cycles(ring)] == [tuple(range(size))]

    def test_against_brute_force(self):
        for n, b in [(2, 3), (3, 4), (2, 5), (4, 5)]:
            graph = build_mother_graph(n, b)
            assert [c.vertices for c in enumerate_cycles(graph)] == brute_force_cycles(graph)

    def test_no_duplicates_and_canonical(self):
        graph = build_mother_graph(3, 4)
        cycles = enumerate_cycles(graph)
        assert len({c.vertices for c in cycles}) == len(cycles)
        for c in cycles:
            assert c.vertices[0] == min(c.vertices)

    def test_max_length(self):
        graph = build_mother_graph(3, 4)
        short = enumerate_cycles(graph, max_length=2)
        assert short == [c for c in enumerate_cycles(graph) if len(c) <= 2]

    @pytest.mark.parametrize("max_length", [0, -2])
    def test_max_length_below_1_is_refused(self, max_length):
        # (4, 10) has four loops, which a bound below 1 must not return
        graph = build_mother_graph(4, 10)
        message = f"max_length must be at least 1; got {max_length}"
        with pytest.raises(ParameterError, match=message):
            enumerate_cycles(graph, max_length=max_length)

    def test_reflection_bijects_inventory(self):
        graph = build_mother_graph(4, 10)
        cycles = enumerate_cycles(graph, max_length=4)
        reflected = sorted(c.reflect().vertices for c in cycles)
        assert reflected == [c.vertices for c in cycles]

    def test_cycle_edges_cover_exactly_the_cyclic_part(self):
        # an edge (u, v) lies on some cycle iff v reaches u
        graph = DigitGraph(10, {(1, 2), (2, 1), (2, 3), (3, 3), (4, 5)})
        on_cycles = set()
        for cycle in enumerate_cycles(graph):
            on_cycles.update(cycle.edges)
        closure = transitive_closure({v for edge in graph.edges for v in edge}, graph.edges)
        expected = {(u, v) for u, v in graph.edges if (v, u) in closure}
        assert on_cycles == expected


class TestDigitCycle:
    def test_canonical_rotation(self):
        assert DigitCycle(10, (7, 6, 1)).vertices == (1, 7, 6)

    def test_loop(self):
        loop = DigitCycle(10, (9,))
        assert loop.edges == ((9, 9),)

    def test_distinct_vertices_required(self):
        with pytest.raises(ParameterError):
            DigitCycle(10, (1, 2, 1))


class TestReflection:
    def test_mother_graph_fixed(self):
        for n, b in [(4, 10), (3, 4), (2, 6), (5, 9)]:
            mother = build_mother_graph(n, b)
            assert mother.reflect() == mother

    def test_class_graph_reflection(self):
        graph = DigitGraph(10, {(1, 7), (7, 6), (6, 1), (2, 8), (8, 2)})
        assert graph.reflect().edges == frozenset(
            {(8, 2), (2, 3), (3, 8), (7, 1), (1, 7)}
        )

    def test_involution(self):
        graph = DigitGraph(7, {(0, 3), (3, 3), (2, 5)})
        assert graph.reflect().reflect() == graph

    def test_distributes_over_union(self):
        g1 = DigitGraph(10, {(1, 7), (7, 1)})
        g2 = DigitGraph(10, {(2, 8), (8, 2), (9, 9)})
        union = DigitGraph(g1.base, g1.edges | g2.edges)
        assert union.reflect().edges == g1.reflect().edges | g2.reflect().edges

    @given(
        st.integers(min_value=2, max_value=12).flatmap(
            lambda b: st.tuples(
                st.just(b),
                st.sets(st.tuples(st.integers(0, b - 1), st.integers(0, b - 1)), max_size=20),
                st.sets(st.tuples(st.integers(0, b - 1), st.integers(0, b - 1)), max_size=20),
            )
        )
    )
    def test_involution_and_distribution_random(self, data):
        base, e1, e2 = data
        g1 = DigitGraph(base, frozenset(e1))
        g2 = DigitGraph(base, frozenset(e2))
        assert g1.reflect().reflect() == g1
        union = DigitGraph(g1.base, g1.edges | g2.edges)
        assert union.reflect().edges == g1.reflect().edges | g2.reflect().edges


class TestIsCycleUnion:
    def test_class_graph(self):
        assert is_cycle_union(DigitGraph(10, {(9, 9), (2, 8), (8, 2), (1, 7), (7, 1)}).edges)

    def test_lone_arc(self):
        assert not is_cycle_union(DigitGraph(10, {(1, 2)}).edges)

    def test_mother_3_4(self):
        assert is_cycle_union(build_mother_graph(3, 4).edges)

    def test_path_plus_cycle(self):
        assert not is_cycle_union(DigitGraph(10, {(1, 2), (2, 1), (2, 3)}).edges)

    def test_bridge_between_cycles(self):
        # every vertex has an edge in and out, but (2, 3) lies on no cycle
        assert not is_cycle_union(DigitGraph(10, {(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)}).edges)

    @given(digit_graphs(7))
    def test_against_cycle_cover(self, graph):
        assert is_cycle_union(graph.edges) == reference_cycle_union(graph)

    def test_ring_longer_than_the_recursion_limit(self):
        assert RING_SIZE > sys.getrecursionlimit()
        assert is_cycle_union(ring(RING_SIZE))
        # a ring through all digits but the last, then a tail edge out to it
        tail = ring(RING_SIZE - 1) + [(0, RING_SIZE - 1)]
        assert not is_cycle_union(tail)


class TestStronglyConnected:
    @given(
        st.frozensets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20),
        st.frozensets(st.integers(0, 9), max_size=4),
    )
    def test_against_transitive_closure(self, edges, isolated):
        nodes = {v for edge in edges for v in edge} | isolated
        assert strongly_connected(nodes, edges) == reference_strongly_connected(nodes, edges)

    def test_ring_longer_than_the_recursion_limit(self):
        assert RING_SIZE > sys.getrecursionlimit()
        edges = ring(RING_SIZE)
        assert strongly_connected(range(RING_SIZE), edges)
        assert not strongly_connected(range(RING_SIZE), edges[1:])
