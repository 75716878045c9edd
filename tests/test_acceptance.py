"""Acceptance suite: the contract-level checks, one test per criterion.

Each test prints a single line ``acceptance <name>: PASS`` with its runtime,
and asserts the runtime stays inside the criterion's budget.
"""

import random
import time
from collections import Counter

from permutiple import (
    ClassSpec,
    DigitCycle,
    DigitGraph,
    brute_force_oracle,
    build_mother_graph,
    build_state_graph,
    check_feasible,
    class_reflection_exists,
    coarse_conjugate,
    count_eulerian_circuits,
    cycle_image,
    dihedral_siblings,
    duplicate_label_factor,
    enumerate_class_members,
    enumerate_cycles,
    eulerian_strings,
    find_permutiples,
    graph_of_permutiple,
    is_symmetric_class,
    reflected_class_witness,
    reflective_siblings,
    rotational_siblings,
    symmetric_closure,
    union_images,
)
from permutiple.search import division_walk, feasible_unions
from permutiple.symmetry import class_unions

from helpers import (
    ALL_KNOWN_EQUATIONS,
    CONJUGATE_ROWS,
    MACHINE_EDGES_4_10,
    NINE_DIGIT_CLASS,
    OUTSIDE_ROW,
    carries_by_value,
    distinct_orderings,
    is_permutiple_string,
    make_record,
    multi_image,
    multiset_union,
    reference_feasible_unions,
)


def _finish(name: str, started: float, budget: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded {budget}s"
    suffix = f"; {detail}" if detail else ""
    print(f"acceptance {name}: PASS ({elapsed:.2f}s{suffix})")


def test_criterion_01_state_graph_exact():
    started = time.perf_counter()
    graph = build_state_graph(4, 10)
    assert graph.states == frozenset(range(4))
    assert dict(graph.edges) == MACHINE_EDGES_4_10
    assert dict(graph.edges)[0, 0] == ((0, 0), (4, 1), (8, 2))
    assert dict(graph.edges)[3, 0] == ((3, 0), (7, 1))
    _finish("01 machine-graph-(4,10)-exact", started, 1.0, "16 edges, 40 labels")


def test_criterion_02_reflection_fixes_machine_everywhere():
    started = time.perf_counter()
    pairs = 0
    for base in range(3, 17):
        for multiplier in range(2, base):
            mother = build_mother_graph(multiplier, base)
            assert mother.reflect() == mother
            machine = build_state_graph(multiplier, base)
            assert machine.reflect() == machine
            pairs += 1
    assert pairs == 105
    _finish("02 reflection-symmetry-sweep", started, 5.0, "105 multiplier/base pairs")


def test_criterion_03_worked_equations():
    started = time.perf_counter()
    checked = 0
    for multiplier, base, digits, preimage in ALL_KNOWN_EQUATIONS:
        record = make_record(multiplier, base, digits, preimage)
        assert record.value() == multiplier * record.preimage_value()
        assert record.carries == carries_by_value(multiplier, base, digits, preimage)
        assert all(0 <= c <= multiplier - 1 for c in record.carries)
        checked += 1
    assert checked >= 45
    _finish("03 worked-equation-suite", started, 1.0, f"{checked} equations")


def test_criterion_04_feasibility_criterion():
    started = time.perf_counter()
    images = {vs: multi_image(DigitCycle(10, vs), 4, 10) for vs in [(9,), (2, 8), (1, 7)]}
    feasible = multiset_union(
        [images[(9,)], images[(2, 8)], images[(2, 8)], images[(1, 7)], images[(1, 7)]]
    )
    assert check_feasible(feasible)
    infeasible = multiset_union([images[(2, 8)], images[(2, 8)], images[(1, 7)]])
    assert not check_feasible(infeasible)
    edges = [label for _, _, label in infeasible.edges]
    orderings = distinct_orderings(edges)
    assert len(orderings) == 180
    assert not any(is_permutiple_string(s, 4, 10) for s in orderings)
    _finish("04 eulerian-feasibility", started, 1.0, "180 orderings refuted")


ORACLE_SWEEP = [
    (3, 4, 6),
    (2, 5, 5),
    (2, 6, 5),
    (4, 10, 5),
    (9, 10, 5),
    (5, 12, 5),
    (7, 12, 5),
    (3, 4, 8),
]


def test_criterion_05_oracle_equivalence():
    started = time.perf_counter()
    compared = 0
    for multiplier, base, top in ORACLE_SWEEP:
        lengths = range(1, top + 1) if (multiplier, base) != (9, 10) else [5]
        for length in lengths:
            # one scan serves both flags: the canonical records are its subset
            every = brute_force_oracle(multiplier, base, length, True)
            for allow in (False, True):
                found = {
                    r.record.key
                    for r in find_permutiples(multiplier, base, length, allow)
                }
                scanned = {r.key for r in every if allow or r.canonical}
                assert found == scanned, (multiplier, base, length, allow)
                compared += 1
    _finish("05 search-equals-oracle", started, 120.0, f"{compared} (n,b,k,flag) combos")


def test_criterion_06_class_of_seventy_two():
    started = time.perf_counter()
    seed = make_record(*NINE_DIGIT_CLASS["seed"])
    with_zeros = enumerate_class_members(seed, allow_leading_zero=True)
    without_zeros = enumerate_class_members(seed, allow_leading_zero=False)
    # no member of this class can start with zero, so both conventions agree
    assert len(with_zeros) == 72
    assert len(without_zeros) == 72
    member_keys = {m.key for m in with_zeros}
    same_digit_listed = (
        [NINE_DIGIT_CLASS["seed"]]
        + NINE_DIGIT_CLASS["transposed"]
        + NINE_DIGIT_CLASS["rotations"]
        + NINE_DIGIT_CLASS["transposed_rotations"]
        + NINE_DIGIT_CLASS["noncyclic"]
    )
    for row in same_digit_listed:
        assert make_record(*row).key in member_keys
    # the reflected relatives carry the reflected digit multiset and live in
    # the reflected class; that class is larger (its zero-digit loop maps to
    # state 0, where the original's (9,9) loop mapped to state 3): circuit
    # counting gives 5 * 2 * 4! * 3! / 16 = 90 members
    reflected_seed = make_record(*NINE_DIGIT_CLASS["reflected"][0])
    reflected_members = enumerate_class_members(reflected_seed, allow_leading_zero=True)
    assert len(reflected_members) == 90
    reflected_keys = {m.key for m in reflected_members}
    reflected_listed = (
        NINE_DIGIT_CLASS["reflected"] + NINE_DIGIT_CLASS["reflected_transposed"]
    )
    for row in reflected_listed:
        assert make_record(*row).key in reflected_keys
    assert len(same_digit_listed) + len(reflected_listed) == 25
    _finish(
        "06 class-count-72",
        started,
        30.0,
        "72 with and without leading zeros (recorded: leading zeros allowed); "
        "13 listed members + 12 reflected-class members reproduced",
    )


def test_criterion_07_reversal_class_closure():
    started = time.perf_counter()
    seed = make_record(*CONJUGATE_ROWS[0])
    members = enumerate_class_members(seed)
    assert {m.key for m in members} == {make_record(*row).key for row in CONJUGATE_ROWS}
    outsider = make_record(*OUTSIDE_ROW)  # verifies ...
    assert outsider.key not in {m.key for m in members}  # ... yet is excluded
    assert graph_of_permutiple(outsider) != graph_of_permutiple(seed)
    _finish("07 conjugate-family-closure", started, 1.0, "4 members, outsider excluded")


def test_criterion_08_sibling_reproduction():
    started = time.perf_counter()

    mixed = make_record(4, 10, (8, 6, 7, 1, 2), (2, 1, 6, 7, 8))
    assert [(j, s.digits.display) for j, s in reflective_siblings(mixed)] == [
        (1, (7, 1, 3, 2, 8)),
        (2, (8, 7, 1, 3, 2)),
    ]
    rotational = rotational_siblings(mixed)
    assert [(j, s.digits.display) for j, s in rotational if j != 0] == [
        (4, (6, 7, 1, 2, 8)),
    ]
    assert len(dihedral_siblings(mixed)) == 4

    base4 = make_record(3, 4, (3, 1, 1, 0, 2, 2), (1, 0, 1, 2, 3, 2))
    base4_reflective = dict(reflective_siblings(base4))
    assert sorted(base4_reflective) == [2, 3]
    assert base4_reflective[2].digits.display == (1, 1, 0, 2, 2, 3)
    assert base4_reflective[3].key == base4.key

    nine = make_record(*NINE_DIGIT_CLASS["seed"])
    nine_reflective = dict(reflective_siblings(nine))
    listed = {
        3: (7, 1, 1, 2, 7, 2, 8, 8, 0),
        4: (0, 7, 1, 1, 2, 7, 2, 8, 8),
        5: (8, 0, 7, 1, 1, 2, 7, 2, 8),
        6: (8, 8, 0, 7, 1, 1, 2, 7, 2),
    }
    for j, display in listed.items():
        assert nine_reflective[j].digits.display == display
    # the carry sequence also qualifies shift 8, a fifth valid sibling
    assert sorted(nine_reflective) == [3, 4, 5, 6, 8]
    _finish(
        "08 sibling-reproduction",
        started,
        1.0,
        "listed sibling sets reproduced exactly (plus the carry-8 sibling)",
    )


# --- criterion 09: randomized theorem-conformance suite ---------------------

PAIR_POOL = [
    (2, 4), (3, 4), (2, 5), (4, 5), (2, 6), (5, 6), (3, 7), (5, 9),
    (4, 10), (7, 10), (6, 11), (5, 12), (7, 12), (11, 12),
]


def _random_subgraph(rng: random.Random, multiplier: int, base: int) -> DigitGraph:
    mother = build_mother_graph(multiplier, base)
    edges = [e for e in mother.sorted_edges if rng.random() < 0.4]
    return DigitGraph(base, frozenset(edges))


def _random_cycles(rng, multiplier, base, count, max_length=4):
    inventory = enumerate_cycles(build_mother_graph(multiplier, base), max_length=max_length)
    return [inventory[rng.randrange(len(inventory))] for _ in range(count)]


def _walk_of(record):
    return (record.carries[:-1], record.string)


def _rotate_walk(walk, steps=1):
    states, labels = walk
    size = len(states)
    steps %= size
    return (
        states[steps:] + states[:steps],
        labels[steps:] + labels[:steps],
    )


def _reflect_walk(walk, multiplier, base):
    """Polygon reflection through position 0 composed with the mirror map.

    Index reversal conjugates rotation to its inverse; the pointwise state
    and label mirror keeps the sequence interpretable on the machine.
    """
    states, labels = walk
    size = len(states)
    new_states = tuple(multiplier - 1 - states[(-i) % size] for i in range(size))
    new_labels = tuple(
        (base - 1 - labels[(-i - 1) % size][0], base - 1 - labels[(-i - 1) % size][1])
        for i in range(size)
    )
    return (new_states, new_labels)


def test_criterion_09_property_suite():
    started = time.perf_counter()
    rng = random.Random(1105)
    cases = 0

    # record pools grouped by digit multiset for the class-equivalence checks
    pools = []
    for multiplier, base, length in [
        (3, 4, 5), (3, 4, 6), (2, 5, 4), (2, 6, 4), (4, 10, 5), (4, 5, 4),
    ]:
        pools.extend(r.record for r in find_permutiples(multiplier, base, length, True))
    by_multiset: dict = {}
    for record in pools:
        key = (record.multiplier, record.base, record.digits.multiset())
        by_multiset.setdefault(key, []).append(record)
    rich_groups = [group for group in by_multiset.values() if len(group) >= 2]

    # digit-graph reflection involution and union distribution
    for _ in range(150):
        multiplier, base = PAIR_POOL[rng.randrange(len(PAIR_POOL))]
        g1 = _random_subgraph(rng, multiplier, base)
        g2 = _random_subgraph(rng, multiplier, base)
        assert g1.reflect().reflect() == g1
        union = DigitGraph(g1.base, g1.edges | g2.edges)
        assert union.reflect().edges == g1.reflect().edges | g2.reflect().edges
        cases += 2

    # machine-subgraph reflection involution and union distribution
    for _ in range(100):
        multiplier, base = PAIR_POOL[rng.randrange(len(PAIR_POOL))]
        cycles = _random_cycles(rng, multiplier, base, 3)
        parts = [cycle_image(c, multiplier, base) for c in cycles]
        union = union_images(parts)
        assert union.reflect().reflect() == union
        assert union.reflect() == union_images(
            [p.reflect() for p in parts]
        )
        cases += 2

    # reflection commutes with taking cycle images
    for _ in range(150):
        multiplier, base = PAIR_POOL[rng.randrange(len(PAIR_POOL))]
        cycle = _random_cycles(rng, multiplier, base, 1)[0]
        assert cycle_image(cycle, multiplier, base).reflect() == cycle_image(
            cycle.reflect(), multiplier, base
        )
        cases += 1

    # reflection preserves strong connectivity
    connected_seen = 0
    while connected_seen < 100:
        multiplier, base = PAIR_POOL[rng.randrange(len(PAIR_POOL))]
        cycles = _random_cycles(rng, multiplier, base, rng.randrange(1, 4))
        union = union_images([cycle_image(c, multiplier, base) for c in cycles])
        if not union.is_strongly_connected():
            continue
        assert union.reflect().is_strongly_connected()
        connected_seen += 1
        cases += 1

    # three-way reflection equivalence: vertex tests agree on sampled unions,
    # and a record whose class reflects yields a witness with the mirrored graph
    for _ in range(100):
        multiplier, base = PAIR_POOL[rng.randrange(len(PAIR_POOL))]
        cycles = _random_cycles(rng, multiplier, base, rng.randrange(1, 4))
        images = union_images([cycle_image(c, multiplier, base) for c in cycles])
        assert ((multiplier - 1) in images.states) == (
            0 in images.reflect().states
        )
        cases += 1
    for _ in range(50):
        record = pools[rng.randrange(len(pools))]
        spec = ClassSpec.from_record(record)
        witness = reflected_class_witness(record)
        assert (witness is not None) == class_reflection_exists(spec)
        if witness is not None:
            assert graph_of_permutiple(witness) == spec.graph.reflect()
        cases += 1

    # symmetric closure: symmetric, idempotent, and agreeing criteria
    closure_seen = 0
    while closure_seen < 100:
        record = pools[rng.randrange(len(pools))]
        spec = ClassSpec.from_record(record)
        if not class_reflection_exists(spec):
            continue
        closure = symmetric_closure(spec)
        assert is_symmetric_class(closure)
        assert symmetric_closure(closure) == closure
        assert closure.graph.edges >= spec.graph.edges
        assert closure.graph.edges >= spec.graph.reflect().edges
        assert is_symmetric_class(spec) == (
            spec.images == spec.images.reflect()
        )
        closure_seen += 1
        cases += 4

    # four-way agreement on pairs with a shared digit multiset
    for _ in range(150):
        group = rich_groups[rng.randrange(len(rich_groups))]
        left = group[rng.randrange(len(group))]
        right = group[rng.randrange(len(group))]
        symmetry_exists = Counter(left.string) == Counter(right.string)
        graphs_equal = graph_of_permutiple(left) == graph_of_permutiple(right)
        coarse = coarse_conjugate(left, right)
        mutual = (
            graph_of_permutiple(left).edges <= graph_of_permutiple(right).edges
            and graph_of_permutiple(right).edges <= graph_of_permutiple(left).edges
        )
        assert symmetry_exists == graphs_equal == coarse == mutual
        cases += 1

    # dihedral identities on closed walks
    for _ in range(150):
        record = pools[rng.randrange(len(pools))]
        walk = _walk_of(record)
        size = len(walk[0])
        n, b = record.multiplier, record.base
        assert _reflect_walk(_reflect_walk(walk, n, b), n, b) == walk
        rotated = walk
        for _ in range(size):
            rotated = _rotate_walk(rotated)
        assert rotated == walk
        left = _reflect_walk(_rotate_walk(_reflect_walk(walk, n, b)), n, b)
        assert left == _rotate_walk(walk, size - 1)
        cases += 3

    assert cases >= 1000
    _finish("09 theorem-conformance", started, 60.0, f"{cases} randomized cases")


def test_criterion_10_circuit_count_crosscheck():
    started = time.perf_counter()
    deltas = []
    for multiplier, base, top in ORACLE_SWEEP:
        lengths = range(1, top + 1) if (multiplier, base) != (9, 10) else [5]
        for length in lengths:
            deltas.extend(
                (multiplier, base, delta)
                for _, delta in feasible_unions(multiplier, base, length)
            )
    for row in [
        NINE_DIGIT_CLASS["seed"],
        NINE_DIGIT_CLASS["reflected"][0],
        CONJUGATE_ROWS[0],
    ]:
        record = make_record(*row)
        deltas.extend(
            (record.multiplier, record.base, delta) for _, delta in class_unions(record)
        )
    assert deltas
    for multiplier, base, delta in deltas:
        anchored = count_eulerian_circuits(delta)
        strings = eulerian_strings(delta)
        assert strings
        assert anchored * delta.out_degree(0) == len(strings) * duplicate_label_factor(
            delta
        ), (multiplier, base, delta)
    _finish(
        "10 circuit-count-crosscheck",
        started,
        120.0,
        f"{len(deltas)} feasible unions checked",
    )


def test_criterion_10_circuit_counts_match_the_kernel():
    # the check above takes its unions from the kernel's own walks; here the
    # unions come from the reference cycle-multiset engine, and the BEST
    # theorem's string count, summed over them, must equal the walk count
    started = time.perf_counter()
    points = [
        (4, 10, 4), (4, 10, 5), (4, 10, 6), (3, 4, 6), (2, 3, 6), (2, 10, 4), (5, 6, 5),
        (9, 10, 5),
    ]
    for point in points:
        counted = 0
        for _, delta in reference_feasible_unions(*point):
            circuits = count_eulerian_circuits(delta) * delta.out_degree(0)
            factor = duplicate_label_factor(delta)
            assert circuits % factor == 0, (point, delta)
            counted += circuits // factor
        walks = sum(1 for _ in division_walk(*point))
        assert walks > 0 and counted == walks, point
    _finish("10 circuit-count-vs-kernel", started, 120.0, f"{len(points)} points")
