"""The benchmark's per-layer tracer wraps the functions named in
``perfbench/tracer.py``'s ``TARGETS``; every one of them must still exist,
or the traced run silently loses its metric."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
