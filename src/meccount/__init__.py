"""Counting Markov equivalence classes over a fixed skeleton."""

from ._kernels import current_backend
from .constructmec import VertexOrdering, construct_mec, lbfs_with_o, verify_merge
from .counting import ShadowTable, brute_force_count, count_mecs, count_rec
from .errors import (
    CapacityError,
    GraphInputError,
    InternalInvariantError,
    PreconditionError,
)
from .extension import DecompositionContext, dpf, is_extension, is_valid_dpf
from .graph import Pdag, UndirectedGraph, markov_union
from .mecrules import (
    VStructure,
    brute_count_mecs,
    brute_count_mecs_andersson,
    cpdag_of_dag,
    enumerate_acyclic_orientations,
    enumerate_mecs,
    is_chain_graph,
    is_mec,
    is_partial_mec,
    is_strongly_protected,
    project_mec,
    v_structures,
)
from .shadow import Shadow, enumerate_partial_mecs, project_shadow, shadow_of_mec
from .tfp import TfpTable, is_canonical_source, tfp_exists, tfp_table
from .treedecomp import TreeDecomposition, cut_last_child, tree_decomposition, validate_td

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DecompositionContext",
    "GraphInputError",
    "InternalInvariantError",
    "Pdag",
    "PreconditionError",
    "Shadow",
    "ShadowTable",
    "TfpTable",
    "TreeDecomposition",
    "UndirectedGraph",
    "VStructure",
    "VertexOrdering",
    "brute_count_mecs",
    "brute_count_mecs_andersson",
    "brute_force_count",
    "construct_mec",
    "count_mecs",
    "count_rec",
    "cpdag_of_dag",
    "current_backend",
    "cut_last_child",
    "dpf",
    "enumerate_acyclic_orientations",
    "enumerate_mecs",
    "enumerate_partial_mecs",
    "is_canonical_source",
    "is_chain_graph",
    "is_extension",
    "is_mec",
    "is_partial_mec",
    "is_strongly_protected",
    "is_valid_dpf",
    "lbfs_with_o",
    "markov_union",
    "project_mec",
    "project_shadow",
    "shadow_of_mec",
    "tfp_exists",
    "tfp_table",
    "tree_decomposition",
    "v_structures",
    "validate_td",
    "verify_merge",
]
