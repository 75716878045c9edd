"""The package's public surface: every name it exported when it imported
every submodule eagerly resolves to the same object, loaded on first use."""

import ast
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import permutiple

from helpers import child_env

# submodule -> the names the package re-exports from it
EXPORTS = {
    "digits": [
        "DigitString", "Permutation", "PermutipleRecord", "canonical_sigma", "verify_permutiple",
    ],
    "errors": [
        "BFileError", "InfeasibleUnionError", "InvariantError", "MultisetMismatchError",
        "NoReflectionError", "ParameterError", "PermutipleError", "ScanLimitError", "SeedError",
        "WalkError",
    ],
    "graphs": [
        "DigitCycle", "DigitGraph", "build_mother_graph", "enumerate_cycles",
        "graph_of_permutiple", "is_cycle_union",
    ],
    "machine": [
        "StateGraph", "StateMultigraph", "build_state_graph", "build_state_multigraph",
        "cycle_image", "transition", "union_images", "walk_states",
    ],
    "search": [
        "CycleMultiset", "SearchResult", "brute_force_oracle", "check_feasible",
        "count_eulerian_circuits", "decompose_into_cycles", "duplicate_label_factor",
        "eulerian_strings", "feasible_unions", "find_permutiples", "string_to_permutiple",
        "walk_records",
    ],
    "symmetry": [
        "ClassSpec", "StateSequence", "apply_symmetry", "check_sym_rev",
        "class_reflection_exists", "coarse_conjugate", "dihedral_siblings",
        "enumerate_class_members", "fine_conjugate", "is_symmetric_class", "reflect_class",
        "reflected_class_witness", "reflective_siblings", "rotational_siblings",
        "state_sequence", "symmetric_closure", "symmetries_fixing_sequence",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_the_export_list_is_complete():
    assert len(NAMES) == 58
    assert sorted(permutiple.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_each_name_is_its_modules_object(module, name):
    submodule = getattr(permutiple, module)
    assert getattr(permutiple, name) is getattr(submodule, name)
    assert name in dir(permutiple)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from permutiple import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(getattr(permutiple, module), name)


def test_submodules_resolve_as_attributes_in_a_fresh_process():
    check = (
        "import permutiple; "
        "print(permutiple.search.walk_records.__name__, "
        "permutiple.serialize.seed_to_record.__name__)"
    )
    result = subprocess.run(
        [sys.executable, "-c", check], capture_output=True, text=True, env=child_env()
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        0,
        "walk_records seed_to_record\n",
        "",
    )


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'find_everything'"):
        permutiple.find_everything
    assert not hasattr(permutiple, "walk_strings")


def test_the_package_needs_only_the_standard_library():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in sorted((root / "src" / "permutiple").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module)
    assert imported, "no absolute imports found"
    assert {name.split(".")[0] for name in imported} <= sys.stdlib_module_names
    with open(root / "pyproject.toml", "rb") as handle:
        assert tomllib.load(handle)["project"]["dependencies"] == []


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(language):
    """The bodies of the README's fenced code blocks in ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_the_readme_library_example_runs():
    (block,) = readme_blocks("python")
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["record"].carries == (0, 3, 3, 3, 0, 0)


def test_the_readme_command_examples_run(capsys):
    from permutiple.cli import main

    examples = [
        shlex.split(line, comments=True)
        for block in readme_blocks("sh")
        for line in block.splitlines()
        if line.startswith("permutiple ")
    ]
    # oeis-check reads a b-file, which the README names but does not ship
    commands = [argv[1] for argv in examples if argv[1] != "oeis-check"]
    assert commands == ["hs-graph", "find", "verify", "siblings", "class"]
    for argv in examples:
        if argv[1] != "oeis-check":
            assert main(argv[1:]) == 0, argv
            out = capsys.readouterr().out
            assert out
            if argv[1] == "class":
                assert len(out.splitlines()) == 72
