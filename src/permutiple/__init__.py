"""Permutiples: numbers that are integer multiples of a permutation of
their own base-b digits, found and classified through the mother graph and
the Hoey-Sloane carry machine.

The package's names load on first access (PEP 562): ``import permutiple``
imports no submodule, and ``permutiple.find_permutiples`` imports
``permutiple.search`` (and what it needs) the first time it is read.
Every submodule is reachable as an attribute, e.g. ``permutiple.serialize``.
"""

import sys

__version__ = "0.1.0"

# The public names of each submodule that the package re-exports
_EXPORTS = {
    "digits": "DigitString Permutation PermutipleRecord canonical_sigma verify_permutiple",
    "errors": """BFileError InfeasibleUnionError InvariantError MultisetMismatchError
        NoReflectionError ParameterError PermutipleError ScanLimitError SeedError WalkError""",
    "graphs": """DigitCycle DigitGraph build_mother_graph enumerate_cycles graph_of_permutiple
        is_cycle_union""",
    "machine": """StateGraph StateMultigraph build_state_graph build_state_multigraph
        cycle_image transition union_images walk_states""",
    "search": """CycleMultiset SearchResult brute_force_oracle check_feasible
        count_eulerian_circuits decompose_into_cycles duplicate_label_factor
        eulerian_strings feasible_unions find_permutiples string_to_permutiple
        walk_records""",
    "symmetry": """ClassSpec StateSequence apply_symmetry check_sym_rev
        class_reflection_exists coarse_conjugate dihedral_siblings enumerate_class_members
        fine_conjugate is_symmetric_class reflect_class reflected_class_witness
        reflective_siblings rotational_siblings state_sequence symmetric_closure
        symmetries_fixing_sequence""",
}
_SUBMODULES = "cli digits errors graphs machine search serialize symmetry value"

# name -> the submodule that holds it; a submodule's own name maps to itself
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_LAZY.update((module, module) for module in _SUBMODULES.split())

__all__ = sorted(name for name, module in _LAZY.items() if name != module)


def __getattr__(name: str) -> object:
    """Import ``name``'s submodule, then keep ``name`` in this namespace."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``__import__`` rather than ``importlib.import_module``, so that
    # ``python -X importtime`` reports the submodule
    __import__(f"{__name__}.{module_name}")
    module = sys.modules[f"{__name__}.{module_name}"]
    value = globals()[name] = module if name == module_name else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
