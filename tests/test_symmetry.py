import copy
import hashlib
import json
import pickle
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permutiple import (
    ClassSpec,
    DigitGraph,
    NoReflectionError,
    ParameterError,
    Permutation,
    WalkError,
    apply_symmetry,
    build_mother_graph,
    check_sym_rev,
    class_reflection_exists,
    coarse_conjugate,
    dihedral_siblings,
    enumerate_class_members,
    find_permutiples,
    fine_conjugate,
    graph_of_permutiple,
    is_symmetric_class,
    reflect_class,
    reflected_class_witness,
    reflective_siblings,
    rotational_siblings,
    state_sequence,
    string_to_permutiple,
    symmetric_closure,
    symmetries_fixing_sequence,
)
from permutiple import machine
from permutiple.digits import carry_step
from permutiple.machine import StateGraph, union_images
from permutiple.search import walk_records
from permutiple.serialize import seed_to_record
from permutiple.symmetry import _fixing_images

from helpers import (
    CONJUGATE_ROWS,
    NINE_DIGIT_CLASS,
    OUTSIDE_ROW,
    make_record,
    reference_fixing_images,
    reference_symmetries_fixing_sequence,
    small_points,
)


POOL = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "pool.json"


@pytest.fixture(scope="module")
def rec_86712():
    return make_record(4, 10, (8, 6, 7, 1, 2), (2, 1, 6, 7, 8))


@pytest.fixture(scope="module")
def rec_base4():
    return make_record(3, 4, (3, 1, 1, 0, 2, 2), (1, 0, 1, 2, 3, 2))


@pytest.fixture(scope="module")
def rec_nine(rec_86712):
    return make_record(*NINE_DIGIT_CLASS["seed"])


class TestStateSequence:
    def test_nine_digit(self, rec_nine):
        assert state_sequence(rec_nine).transitions == (
            (0, 0), (0, 0), (0, 3), (3, 3), (3, 3), (3, 3), (3, 0), (0, 3), (3, 0),
        )

    def test_mixed(self, rec_86712):
        assert state_sequence(rec_86712).transitions == (
            (0, 3), (3, 3), (3, 2), (2, 0), (0, 0),
        )

    def test_zero_record(self):
        record = make_record(4, 10, (0, 0), (0, 0))
        assert state_sequence(record).transitions == ((0, 0), (0, 0))

    def test_chaining_enforced(self):
        from permutiple import StateSequence

        with pytest.raises(ParameterError):
            StateSequence(((0, 1), (2, 0)))


class TestReflectiveSiblings:
    def test_mixed_record(self, rec_86712):
        siblings = reflective_siblings(rec_86712)
        assert [(j, s.digits.display, s.preimage.display) for j, s in siblings] == [
            (1, (7, 1, 3, 2, 8), (1, 7, 8, 3, 2)),
            (2, (8, 7, 1, 3, 2), (2, 1, 7, 8, 3)),
        ]

    def test_base4_record(self, rec_base4):
        siblings = reflective_siblings(rec_base4)
        assert [j for j, _ in siblings] == [2, 3]
        assert siblings[0][1].digits.display == (1, 1, 0, 2, 2, 3)
        assert siblings[0][1].preimage.display == (0, 1, 2, 3, 2, 1)
        # the shift-3 sibling reproduces the record itself
        assert siblings[1][1].key == rec_base4.key

    def test_nine_digit_record(self, rec_nine):
        siblings = dict(reflective_siblings(rec_nine))
        # the carry sequence qualifies five shifts; four are the familiar ones
        assert sorted(siblings) == [3, 4, 5, 6, 8]
        expected = {
            3: (7, 1, 1, 2, 7, 2, 8, 8, 0),
            4: (0, 7, 1, 1, 2, 7, 2, 8, 8),
            5: (8, 0, 7, 1, 1, 2, 7, 2, 8),
            6: (8, 8, 0, 7, 1, 1, 2, 7, 2),
        }
        for j, display in expected.items():
            assert siblings[j].digits.display == display

    def test_carry_formula(self, rec_86712, rec_base4, rec_nine):
        for record in (rec_86712, rec_base4, rec_nine):
            n = record.multiplier
            size = len(record)
            for j, sibling in reflective_siblings(record):
                expected = tuple(
                    n - 1 - record.carries[(i + j) % size] for i in range(size)
                ) + (0,)
                assert sibling.carries == expected


class TestRotationalSiblings:
    def test_mixed_record(self, rec_86712):
        siblings = rotational_siblings(rec_86712)
        assert [(j, s.digits.display) for j, s in siblings] == [
            (0, (8, 6, 7, 1, 2)),
            (4, (6, 7, 1, 2, 8)),
        ]
        assert siblings[1][1].preimage.display == (1, 6, 7, 8, 2)

    def test_trivial_shift_is_identity(self, rec_nine):
        siblings = dict(rotational_siblings(rec_nine))
        assert siblings[0].key == rec_nine.key

    def test_nine_digit_record(self, rec_nine):
        siblings = dict(rotational_siblings(rec_nine))
        assert sorted(siblings) == [0, 1, 2, 7]
        assert siblings[1].digits.display == (8, 7, 2, 7, 1, 1, 9, 2, 8)
        assert siblings[2].digits.display == (8, 8, 7, 2, 7, 1, 1, 9, 2)
        assert siblings[7].digits.display == (7, 1, 1, 9, 2, 8, 8, 7, 2)

    def test_carry_formula(self, rec_86712, rec_nine):
        for record in (rec_86712, rec_nine):
            size = len(record)
            for j, sibling in rotational_siblings(record):
                expected = tuple(
                    record.carries[(i + j) % size] for i in range(size)
                ) + (0,)
                assert sibling.carries == expected


class TestDihedralSiblings:
    def test_mixed_record(self, rec_86712):
        displays = {s.digits.display for s in dihedral_siblings(rec_86712)}
        assert displays == {
            (8, 6, 7, 1, 2),
            (6, 7, 1, 2, 8),
            (7, 1, 3, 2, 8),
            (8, 7, 1, 3, 2),
        }

    def test_zero_record(self):
        record = make_record(4, 10, (0, 0), (0, 0))
        assert [s.key for s in dihedral_siblings(record)] == [record.key]


class TestClassReflection:
    def test_mixed_class_reflects(self, rec_86712):
        spec = ClassSpec.from_record(rec_86712)
        assert class_reflection_exists(spec)
        reflected = reflect_class(spec)
        assert reflected.graph.edges == frozenset(
            {(8, 2), (2, 3), (3, 8), (7, 1), (1, 7)}
        )

    def test_reversal_class_reflects(self):
        spec = ClassSpec.from_record(make_record(*CONJUGATE_ROWS[0]))
        assert class_reflection_exists(spec)

    def test_zero_class_does_not(self):
        spec = ClassSpec.from_record(make_record(4, 10, (0, 0), (0, 0)))
        assert spec.images.states == frozenset({0})
        assert not class_reflection_exists(spec)
        with pytest.raises(NoReflectionError):
            reflect_class(spec)
        with pytest.raises(NoReflectionError):
            symmetric_closure(spec)

    def test_vertex_test_matches_reflected_zero(self, rec_86712, rec_base4):
        for record in (rec_86712, rec_base4):
            spec = ClassSpec.from_record(record)
            reflected_images = spec.images.reflect()
            assert class_reflection_exists(spec) == (0 in reflected_images.states)

    def test_witness_realizes_reflected_graph(self, rec_86712, rec_nine):
        for record in (rec_86712, rec_nine):
            witness = reflected_class_witness(record)
            assert witness is not None
            assert graph_of_permutiple(witness) == graph_of_permutiple(record).reflect()


class TestSymmetricClosure:
    def test_mixed_class_closure(self, rec_86712):
        spec = ClassSpec.from_record(rec_86712)
        closure = symmetric_closure(spec)
        assert closure.graph.edges == frozenset(
            {(2, 8), (8, 2), (1, 7), (7, 6), (6, 1), (7, 1), (2, 3), (3, 8)}
        )
        assert is_symmetric_class(closure)
        assert symmetric_closure(closure) == closure

    def test_empty_graph_is_not_a_class(self):
        with pytest.raises(ParameterError):
            ClassSpec.from_graph(4, DigitGraph(10, frozenset()))

    def test_graph_outside_the_mother_graph_is_not_a_class(self):
        # a cycle union whose edges (0,1), (1,0) fail the mother-graph test at n=4
        with pytest.raises(ParameterError):
            ClassSpec.from_graph(4, DigitGraph(10, {(0, 1), (1, 0)}))

    def test_mother_graph_class_is_symmetric(self):
        spec = ClassSpec.from_graph(4, build_mother_graph(4, 10))
        assert is_symmetric_class(spec)
        assert symmetric_closure(spec) == spec

    def test_symmetry_agreement(self, rec_86712):
        spec = ClassSpec.from_record(rec_86712)
        closure = symmetric_closure(spec)
        for candidate in (spec, closure):
            graph_sym = candidate.graph == candidate.graph.reflect()
            images_sym = candidate.images == candidate.images.reflect()
            assert graph_sym == images_sym == is_symmetric_class(candidate)

    @pytest.mark.parametrize("point", [(4, 10, 7), (3, 4, 8), (5, 12, 6)])
    def test_classes_read_off_the_carries_match_the_graph_route(self, point):
        # from_record builds the images from the record's input pairs, whose
        # transitions are its carries, and the reflection and the closure
        # map them; from_graph builds them from the graph's edge set
        n = point[0]
        reflectable = 0
        for record in walk_records(*point):
            spec = ClassSpec.from_record(record)
            graph = graph_of_permutiple(record)
            assert spec == ClassSpec.from_graph(n, graph)
            if (n - 1) not in ClassSpec.from_graph(n, graph).images.states:
                for derive in (reflect_class, symmetric_closure):
                    with pytest.raises(NoReflectionError):
                        derive(spec)
                continue
            reflectable += 1
            assert reflect_class(spec) == ClassSpec.from_graph(n, graph.reflect())
            united = DigitGraph(graph.base, graph.edges | graph.reflect().edges)
            closure = ClassSpec.from_graph(n, united)
            assert symmetric_closure(spec) == closure
        assert reflectable > 0

    # a label that is no mother-graph edge, added to a class's images:
    # StateGraph's constructor refuses it on every build and on unpickling,
    # so no ClassSpec can hold it; the ids name each label
    @pytest.mark.parametrize(
        "seed, label, message",
        [
            pytest.param(
                "4x10:86712=4*21678", (9, 1), "(9,1) is not a mother-graph edge for n=4, b=10",
                id="4x10:86712=4*21678-(9,1) drives no transition",
            ),
            pytest.param(
                "3x4:00020313=3*00002331", (1, 2), "(1,2) is not a mother-graph edge for n=3, b=4",
                id="3x4:00020313=3*00002331-(1,2) drives no transition",
            ),
            pytest.param(
                "4x10:86712=4*21678", (10, 0), "edge (10,0) out of range for base 10",
                id="4x10:86712=4*21678-(10,0) digit out of range",
            ),
        ],
    )
    def test_bad_images_still_raise(self, seed, label, message):
        spec = ClassSpec.from_record(seed_to_record(seed))
        images = spec.images
        n, b, labels = images.multiplier, images.base, images.labels | {label}
        with pytest.raises(ParameterError) as caught:
            StateGraph(n, b, labels)
        assert str(caught.value) == message
        corrupt = copy.copy(images)
        object.__setattr__(corrupt, "labels", labels)  # as a tampered pickle would
        tampered = copy.copy(spec)
        object.__setattr__(tampered, "images", corrupt)
        for obj in (corrupt, tampered):
            with pytest.raises(ParameterError) as caught:
                pickle.loads(pickle.dumps(obj))
            assert str(caught.value) == message

    def test_no_class_has_an_isolated_state(self):
        # the images' states are the ends of their edges; a state passed
        # beside the labels, which would make state 3 look like an image
        # vertex of the class {(0, 0)}, can be neither built nor unpickled
        with pytest.raises(TypeError):
            StateGraph(4, 10, {0, 3}, {(0, 0): [(0, 0)]})
        spec = ClassSpec(StateGraph(4, 10, [(0, 0)]))
        assert spec.images.states == frozenset({0})
        corrupt = copy.copy(spec.images)
        object.__setattr__(corrupt, "states", frozenset({0, 3}))  # as a tampered object would hold
        tampered = copy.copy(spec)
        object.__setattr__(tampered, "images", corrupt)
        assert class_reflection_exists(tampered)
        again = pickle.loads(pickle.dumps(tampered))
        assert again == spec and again.images.states == frozenset({0})
        assert not class_reflection_exists(again)
        with pytest.raises(NoReflectionError):
            reflect_class(again)

    @pytest.mark.parametrize("point", [(4, 10, 6), (3, 4, 7), (5, 12, 5)])
    def test_image_states_are_the_ends_of_its_edges(self, point):
        n, b, _ = point

        def ends(images):
            return frozenset(c for pair, _ in images.edges for c in pair)

        specs = []
        for record in walk_records(*point):
            spec = ClassSpec.from_record(record)
            assert spec.images.states == frozenset(record.carries)
            specs += [spec, ClassSpec.from_graph(n, spec.graph)]
            if class_reflection_exists(spec):
                specs += [reflect_class(spec), symmetric_closure(spec)]
        images = [spec.images for spec in specs] + [machine.build_state_graph(n, b)]
        for image in images:
            assert image.states == ends(image)

    @settings(max_examples=40, deadline=None)
    @given(point=small_points(), data=st.data())
    def test_closure_equals_the_union_of_two_images(self, point, data):
        # the closure's one build against the reflected graph and images
        # built on their own and then united
        spec = ClassSpec.from_record(data.draw(st.sampled_from(list(walk_records(*point)))))
        n, b, g, i = spec.multiplier, spec.base, spec.graph, spec.images

        def reference():
            if n - 1 not in i.states:
                raise NoReflectionError(f"state {n - 1} is not an image vertex")
            closure = ClassSpec(union_images((i, i.reflect())))
            assert closure.graph == DigitGraph(b, g.edges | g.reflect().edges)
            return closure

        outcomes = []
        for build in (lambda: symmetric_closure(spec), reference):
            try:
                outcomes.append(build())
            except NoReflectionError:
                outcomes.append(NoReflectionError)
        assert outcomes[0] == outcomes[1]

    def test_class_builds_trace_each_label_once(self, rec_nine, monkeypatch):
        # an image computes each distinct label's transition once, when it
        # is built, with carry_step; transition only names a refused label
        traced = []

        def step(n, b, d, p):
            traced.append((d, p))
            return carry_step(n, b, d, p)

        def refuse(*args):
            raise AssertionError("named a label")

        monkeypatch.setattr(machine, "carry_step", step)
        monkeypatch.setattr(machine, "transition", refuse)
        spec = ClassSpec.from_record(rec_nine)
        assert sorted(traced) == sorted(set(rec_nine.string))
        for derive in (reflect_class, symmetric_closure):
            traced.clear()
            derived = derive(spec)
            assert sorted(traced) == sorted(derived.images.labels)
        with pytest.raises(AssertionError, match="named a label"):  # the guard is live
            ClassSpec.from_graph(4, DigitGraph(10, {(9, 1), (1, 9)}))


class TestFixingSymmetries:
    def test_nine_digit_exactly_two(self, rec_nine):
        phis = symmetries_fixing_sequence(rec_nine)
        assert [p.mapping for p in phis] == [
            (0, 1, 2, 4, 3, 5, 6, 7, 8),
            (0, 1, 2, 5, 4, 3, 6, 7, 8),
        ]
        images = [apply_symmetry(rec_nine, p) for p in phis]
        assert images[0].digits.display == (7, 2, 7, 1, 9, 1, 2, 8, 8)
        assert images[1].digits.display == (7, 2, 7, 9, 1, 1, 2, 8, 8)

    def test_all_distinct_transitions_empty(self, rec_86712):
        assert symmetries_fixing_sequence(rec_86712) == []

    def test_transposed_variant_verifies(self):
        make_record(*NINE_DIGIT_CLASS["transposed"][0])


# grid points whose records have repeated digits, so a sibling's sigma could
# differ from the smallest one; together 13,173 dihedral siblings
SIBLING_POINTS = [(2, 10, 7), (4, 10, 7), (3, 4, 8), (5, 12, 6), (3, 10, 7)]


class TestSiblingsAreFoundRecords:
    @pytest.mark.parametrize("point", SIBLING_POINTS)
    def test_every_sibling_equals_the_found_record(self, point):
        found = {r.record.key: r.record for r in find_permutiples(*point, True)}
        for record in found.values():
            shifted = reflective_siblings(record) + rotational_siblings(record)
            for sibling in [s for _, s in shifted] + dihedral_siblings(record):
                assert sibling == found[sibling.key]

    @pytest.mark.parametrize("point", SIBLING_POINTS)
    def test_fixing_symmetries_match_the_reference(self, point):
        found = {r.record.key: r.record for r in find_permutiples(*point, True)}
        with_symmetries = 0
        for record in found.values():
            phis = symmetries_fixing_sequence(record)
            assert phis == reference_symmetries_fixing_sequence(record)
            s = record.string
            for phi, image in _fixing_images(record):
                assert image.string == tuple(s[phi(i)] for i in range(len(s)))
                assert image == found[image.key]
            with_symmetries += bool(phis)
        assert with_symmetries > 0


def fixing_view(images):
    return [(phi.mapping, image.key) for phi, image in images]


class TestFixingImagesOneGroupAtATime:
    """The per-group enumeration of :func:`_fixing_images` against the
    whole-string product-then-diff one, mappings and image keys in order."""

    def test_every_pooled_record(self):
        pool = json.loads(POOL.read_text(encoding="utf-8"))
        images = 0
        for key in sorted(pool):
            for seed in pool[key]:
                record = seed_to_record(seed)
                found = fixing_view(_fixing_images(record))
                assert found == fixing_view(reference_fixing_images(record))
                images += len(found)
        assert images == 7106

    @settings(max_examples=100, deadline=None)
    @given(base=st.integers(3, 7), data=st.data(), allow=st.booleans())
    def test_class_members_at_small_points(self, base, data, allow):
        point = (data.draw(st.integers(2, base - 1)), base, data.draw(st.integers(1, 7)))
        records = list(walk_records(*point, allow_leading_zero=allow))
        assume(records)
        record = data.draw(st.sampled_from(records))
        for member in enumerate_class_members(record, allow):
            assert fixing_view(_fixing_images(member)) == fixing_view(
                reference_fixing_images(member)
            )


class TestApplySymmetry:
    def test_identity(self, rec_nine):
        assert apply_symmetry(rec_nine, Permutation.identity(9)).key == rec_nine.key

    def test_transposition_then_rotation(self, rec_nine):
        phi1 = Permutation.transposition(9, 3, 4)
        composed = phi1.compose(Permutation.rotation(9, 1))
        image = apply_symmetry(rec_nine, composed)
        assert image is not None
        assert image.digits.display == (8, 7, 2, 7, 1, 9, 1, 2, 8)

    def test_reflected_composition(self, rec_nine):
        phi2 = Permutation.transposition(9, 3, 5)
        composed = phi2.compose(Permutation.rotation(9, 6))
        image = apply_symmetry(rec_nine, composed, reflect=True)
        assert image is not None
        assert image.digits.display == (0, 8, 8, 7, 1, 1, 2, 7, 2)
        assert image.preimage.display == (0, 2, 2, 1, 7, 7, 8, 1, 8)

    def test_failure_returns_none(self, rec_86712):
        # rotating by one needs a zero carry at position 1; here it is 3
        assert apply_symmetry(rec_86712, Permutation.rotation(5, 1)) is None

    def test_size_mismatch(self, rec_86712):
        with pytest.raises(ParameterError):
            apply_symmetry(rec_86712, Permutation.identity(4))

    @settings(max_examples=200, deadline=None)
    @given(point=small_points(), data=st.data())
    def test_matches_the_string_read_through_the_machine(self, point, data):
        n, b, k = point
        record = data.draw(st.sampled_from(list(walk_records(n, b, k))))
        phi = Permutation(tuple(data.draw(st.permutations(range(k)))))
        reflect = data.draw(st.booleans())
        permuted = [record.string[phi(i)] for i in range(k)]
        if reflect:
            permuted = [(b - 1 - d, b - 1 - p) for d, p in permuted]
        image = apply_symmetry(record, phi, reflect)
        try:
            expected = string_to_permutiple(permuted, n, b).record
        except WalkError:
            assert image is None
        else:
            assert image == expected and image.carries == expected.carries


class TestCoarseConjugacy:
    def test_conjugate_rows(self):
        records = [make_record(*row) for row in CONJUGATE_ROWS]
        for left in records:
            for right in records:
                assert coarse_conjugate(left, right)

    def test_outside_row_differs(self):
        base = make_record(*CONJUGATE_ROWS[0])
        outsider = make_record(*OUTSIDE_ROW)
        assert not coarse_conjugate(base, outsider)

    def test_self(self, rec_nine):
        assert coarse_conjugate(rec_nine, rec_nine)

    def test_parameter_mismatch(self, rec_86712):
        other = make_record(2, 6, (4, 3, 5, 1, 2), (2, 1, 5, 3, 4))
        with pytest.raises(ParameterError):
            coarse_conjugate(rec_86712, other)

    def test_fine_matches_coarse_on_distinct_digits(self):
        records = [make_record(*row) for row in CONJUGATE_ROWS]
        outsider = make_record(*OUTSIDE_ROW)
        for left in records:
            for right in records + [outsider]:
                assert fine_conjugate(left, right) == coarse_conjugate(left, right)

    def test_fine_rejects_repeated_digits(self, rec_nine):
        with pytest.raises(ParameterError):
            fine_conjugate(rec_nine, rec_nine)


class TestClassMembers:
    def test_reversal_class_has_four(self):
        record = make_record(*CONJUGATE_ROWS[0])
        members = enumerate_class_members(record)
        assert {m.digits.display for m in members} == {
            row[2] for row in CONJUGATE_ROWS
        }

    def test_states_differing_only_in_digits_left_to_place(self):
        # walks reach equal carries, step counts and balances with different
        # left digits still to place; the pinned search must keep them apart
        record = make_record(4, 10, (0, 7, 9, 0, 4, 1, 6), (0, 1, 9, 7, 6, 0, 4))
        values = [m.value() for m in enumerate_class_members(record)]
        assert values == [167904, 790416, 1607904, 1679040, 7904016, 7904160]

    def test_outside_row_verified_but_excluded(self):
        record = make_record(*CONJUGATE_ROWS[0])
        outsider = make_record(*OUTSIDE_ROW)
        members = enumerate_class_members(record)
        assert outsider.key not in {m.key for m in members}

    def test_zero_class(self):
        record = make_record(4, 10, (0, 0), (0, 0))
        members = enumerate_class_members(record)
        assert [m.key for m in members] == [record.key]

    def test_members_share_digits_and_class_graph(self, rec_nine):
        class_graph = graph_of_permutiple(rec_nine)
        members = enumerate_class_members(rec_nine)
        assert len(members) == 72
        for member in members:
            assert member.digits.multiset() == rec_nine.digits.multiset()
            assert graph_of_permutiple(member).edges <= class_graph.edges

    def test_the_members_of_every_pooled_class(self):
        # the members of every record of the benchmark's pool, sigma and
        # carries included, with and without zero-led ones, hashed: a
        # change to the class walk must leave every one of them as it is
        pool = json.loads(POOL.read_text(encoding="utf-8"))
        digest = hashlib.sha256()
        for key in sorted(pool):
            for seed in pool[key]:
                record = seed_to_record(seed)
                for allow in (False, True):
                    for m in enumerate_class_members(record, allow):
                        member = (m.digits.digits, m._preimage, m.carries, m.sigma.mapping)
                        digest.update(repr(member).encode())
                    digest.update(b"|")
        assert sum(map(len, pool.values())) == 2794
        assert digest.hexdigest() == (
            "003dc4c93ab77e8c3d74b5156290f0cb6a0ad391b94481061a6e36138411090b"
        )


class TestSortedReflectiveForm:
    def test_ten_digit_example(self):
        record = make_record(
            4, 10, (7, 2, 8, 8, 6, 7, 1, 1, 3, 2), (1, 8, 2, 2, 1, 6, 7, 7, 8, 3)
        )
        assert record.carries[2] == 3
        assert check_sym_rev(record, 2)
        sibling = dict(reflective_siblings(record))[2]
        assert sibling.digits.display == (6, 7, 2, 7, 1, 1, 3, 2, 8, 8)
        assert sibling.preimage.display == (1, 6, 8, 1, 7, 7, 8, 3, 2, 2)

    def test_base4_example(self, rec_base4):
        assert check_sym_rev(rec_base4, 2)

    def test_carry_precondition(self, rec_base4):
        with pytest.raises(ParameterError):
            check_sym_rev(rec_base4, 4)  # carry there is 1, not 2

    def test_multiset_precondition(self):
        record = make_record(4, 10, (8, 7, 9, 1, 2), (2, 1, 9, 7, 8))
        with pytest.raises(ParameterError):
            check_sym_rev(record, 1)
