"""The value-class contract: every immutable class of the package behaves
as a frozen record of its fields, and copies re-validate."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import permutiple

from permutiple import (
    ClassSpec,
    CycleMultiset,
    DigitCycle,
    DigitGraph,
    DigitString,
    ParameterError,
    Permutation,
    PermutipleRecord,
    SearchResult,
    StateGraph,
    StateMultigraph,
    StateSequence,
    verify_permutiple,
)
from permutiple.value import Value

_set = object.__setattr__

_RECORD = verify_permutiple(
    DigitString.from_display(10, (8, 7, 9, 1, 2)), Permutation((4, 3, 2, 1, 0)), 4
)
_ZERO = verify_permutiple(DigitString(10, (0,)), Permutation((0,)), 4)

# (instance, its repr as the dataclass-generated one reads)
INSTANCES = [
    (DigitString(10, (8, 2, 1, 7)), "DigitString(base=10, digits=(8, 2, 1, 7))"),
    (Permutation((1, 0, 2)), "Permutation(mapping=(1, 0, 2))"),
    (
        _RECORD,
        "PermutipleRecord(multiplier=4, digits=DigitString(base=10, digits=(2, 1, 9, 7, 8)), "
        "sigma=Permutation(mapping=(4, 3, 2, 1, 0)))",
    ),
    (DigitGraph(10, frozenset({(1, 7)})), "DigitGraph(base=10, edges=frozenset({(1, 7)}))"),
    (DigitCycle(10, (7, 1)), "DigitCycle(base=10, vertices=(1, 7))"),
    (
        StateGraph(4, 10, [(2, 8)]),
        "StateGraph(multiplier=4, base=10, labels=frozenset({(2, 8)}))",
    ),
    (
        StateMultigraph(3, 4, [(0, 0)]),
        "StateMultigraph(multiplier=3, base=4, labels=((0, 0),))",
    ),
    (
        CycleMultiset((DigitCycle(10, (0,)),), (2,)),
        "CycleMultiset(cycles=(DigitCycle(base=10, vertices=(0,)),), multiplicities=(2,))",
    ),
    (
        SearchResult(_ZERO),
        "SearchResult(record=PermutipleRecord(multiplier=4, digits=DigitString(base=10, "
        "digits=(0,)), sigma=Permutation(mapping=(0,))))",
    ),
    (StateSequence(((0, 1), (1, 0))), "StateSequence(transitions=((0, 1), (1, 0)))"),
    (
        ClassSpec.from_record(_ZERO),
        "ClassSpec(images=StateGraph(multiplier=4, base=10, labels=frozenset({(0, 0)})))",
    ),
]
OBJECTS = [obj for obj, _ in INSTANCES]
IDS = [type(obj).__name__ for obj in OBJECTS]

# (class, one field and a value for it that the class's checks refuse), for
# every class but the one whose one field is itself a checked value
CORRUPTIONS = [
    (DigitString, "base", 1),
    (Permutation, "mapping", (0, 0, 2)),
    (PermutipleRecord, "sigma", Permutation((0, 1, 2, 3, 4))),  # 21978 = 4 * 21978 is false
    (DigitGraph, "edges", frozenset({(1, 10)})),
    (DigitCycle, "vertices", (1, 1)),
    (CycleMultiset, "multiplicities", (0,)),
    (StateSequence, "transitions", ((0, 1), (0, 0))),
    (StateGraph, "labels", frozenset({(2, 8), (9, 1)})),  # (9, 1) is no mother-graph edge
    (StateMultigraph, "labels", ((1, 2),)),  # no mother-graph edge at n = 3, b = 4
    (ClassSpec, "images", StateGraph(4, 10, [(2, 8)])),  # graph {(2, 8)}: no cycle union
    (ClassSpec, "images", StateGraph(4, 10, ())),  # the empty graph
]
COMPOSED = {SearchResult}


def fields(obj):
    return tuple(getattr(obj, name) for name in type(obj).__slots__)


def test_every_value_class_is_covered():
    defined = set()
    for module in pkgutil.iter_modules(permutiple.__path__):
        namespace = vars(importlib.import_module(f"permutiple.{module.name}"))
        defined |= {
            obj for obj in namespace.values()
            if isinstance(obj, type) and issubclass(obj, Value) and obj is not Value
            and obj.__module__.startswith("permutiple.")
        }
    assert defined == {type(obj) for obj in OBJECTS}
    assert defined - COMPOSED == {cls for cls, _, _ in CORRUPTIONS}
    assert all(len(cls.__slots__) == 1 for cls in COMPOSED)


@pytest.mark.parametrize("obj, text", INSTANCES, ids=IDS)
def test_repr_is_the_generated_one(obj, text):
    assert repr(obj) == text


@pytest.mark.parametrize("obj", OBJECTS, ids=IDS)
def test_slots_are_the_annotated_fields(obj):
    cls = type(obj)
    assert cls.__slots__ == tuple(cls.__annotations__)
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("obj", OBJECTS, ids=IDS)
def test_copies_are_equal(obj):
    for again in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(again) is type(obj)
        assert again == obj and hash(again) == hash(obj)


@pytest.mark.parametrize("obj", OBJECTS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(obj):
    name = type(obj).__slots__[0]
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, before)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, name) is before


@pytest.mark.parametrize("obj", OBJECTS, ids=IDS)
def test_equality_is_by_fields_within_one_class(obj):
    cls = type(obj)
    same = cls(*fields(obj))
    assert same == obj and hash(same) == hash(obj) == hash(fields(obj))
    assert obj != fields(obj)
    twin = type("Twin", (Value,), {"__slots__": cls.__slots__})(*fields(obj))
    assert obj != twin and twin != obj


@pytest.mark.parametrize("obj", OBJECTS, ids=IDS)
def test_keyword_construction(obj):
    cls = type(obj)
    values = dict(zip(cls.__slots__, fields(obj)))
    assert cls(**values) == obj
    first, *rest = cls.__slots__
    assert cls(values[first], **{name: values[name] for name in rest}) == obj


def test_bad_arguments_are_type_errors():
    with pytest.raises(TypeError):
        DigitString(10)
    with pytest.raises(TypeError):
        DigitString(10, (1,), (2,))
    with pytest.raises(TypeError):
        DigitString(10, base=10)
    with pytest.raises(TypeError):
        DigitString(10, digit=(1,))


@pytest.mark.parametrize("cls, name, bad", CORRUPTIONS, ids=[c[0].__name__ for c in CORRUPTIONS])
def test_bad_field_is_refused_on_construction_and_unpickling(cls, name, bad):
    obj = next(o for o in OBJECTS if type(o) is cls)
    values = {**dict(zip(cls.__slots__, fields(obj))), name: bad}
    with pytest.raises(ParameterError):
        cls(**values)
    corrupt = copy.copy(obj)
    _set(corrupt, name, bad)  # bypass the checks, as a tampered pickle would
    data = pickle.dumps(corrupt)
    with pytest.raises(ParameterError):
        pickle.loads(data)
    with pytest.raises(ParameterError):
        copy.deepcopy(corrupt)
