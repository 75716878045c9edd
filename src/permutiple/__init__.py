"""Permutiples: numbers that are integer multiples of a permutation of
their own base-b digits, found and classified through the mother graph and
the Hoey-Sloane carry machine."""

from .digits import (
    DigitString,
    Permutation,
    PermutipleRecord,
    canonical_sigma,
    lambda_residue,
    verify_permutiple,
)
from .errors import (
    BFileError,
    InfeasibleUnionError,
    InvariantError,
    MultisetMismatchError,
    NoReflectionError,
    ParameterError,
    PermutipleError,
    ScanLimitError,
    SeedError,
    WalkError,
)
from .graphs import (
    DigitCycle,
    DigitGraph,
    build_mother_graph,
    enumerate_cycles,
    graph_of_permutiple,
    is_cycle_union,
)
from .machine import (
    StateGraph,
    StateMultigraph,
    build_state_graph,
    build_state_multigraph,
    cycle_image,
    multi_image,
    multiset_union,
    transition,
    union_images,
    walk_states,
)
from .search import (
    CycleMultiset,
    SearchResult,
    brute_force_oracle,
    check_feasible,
    count_eulerian_circuits,
    decompose_into_cycles,
    duplicate_label_factor,
    eulerian_strings,
    feasible_unions,
    find_permutiples,
    string_to_permutiple,
    walk_records,
)
from .symmetry import (
    ClassSpec,
    StateSequence,
    apply_symmetry,
    check_sym_rev,
    class_reflection_exists,
    coarse_conjugate,
    dihedral_siblings,
    enumerate_class_members,
    fine_conjugate,
    is_symmetric_class,
    reflect_class,
    reflected_class_witness,
    reflective_siblings,
    rotational_siblings,
    state_sequence,
    symmetric_closure,
    symmetries_fixing_sequence,
)

__version__ = "0.1.0"
