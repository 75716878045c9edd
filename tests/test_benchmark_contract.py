"""The benchmark reads the program in two ways, and both must keep working.

Its per-layer tracer wraps the functions named in ``perfbench/tracer.py``'s
``TARGETS``; every one of them must still exist, or the traced run silently
loses its metric.  Its library client (``perfbench/session.py``) and its
golden-data builder (``perfbench/golden.py``) call the package as ``pm``;
every name they use must resolve, or every query that uses it fails.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import permutiple as pm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attribute) for module, attribute, *_ in tracer.TARGETS]


@pytest.mark.parametrize("module, attribute", _targets())
def test_traced_name_resolves(module, attribute):
    owner = importlib.import_module(f"permutiple.{module}")
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _package_chains(path):
    """Every longest ``pm.a.b...`` attribute chain in a file, as a tuple of names."""
    chains = set()
    inner = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Attribute):
            continue
        parts, base = [], node
        while isinstance(base, ast.Attribute):
            parts.append(base.attr)
            inner.add(id(base.value))
            base = base.value
        if isinstance(base, ast.Name) and base.id == "pm" and id(node) not in inner:
            chains.add(tuple(reversed(parts)))
    return sorted(chains)


CLIENT_CHAINS = [
    (name, chain)
    for name in ("session.py", "golden.py")
    for chain in _package_chains(PERFBENCH / name)
]


def test_the_clients_use_the_package():
    assert {name for name, _ in CLIENT_CHAINS} == {"session.py", "golden.py"}


@pytest.mark.parametrize(
    "client, chain",
    CLIENT_CHAINS,
    ids=[f"{name}-{'.'.join(chain)}" for name, chain in CLIENT_CHAINS],
)
def test_client_name_resolves(client, chain):
    owner = pm
    for part in chain:
        owner = getattr(owner, part)
    assert callable(owner)


def test_find_results_carry_a_record():
    assert isinstance(pm.find_permutiples(4, 10, 5)[0].record, pm.PermutipleRecord)


def test_feasible_unions_answer_out_degree():
    unions = pm.feasible_unions(3, 4, 6)
    assert unions
    for _, delta in unions:
        assert delta.out_degree(0) > 0
