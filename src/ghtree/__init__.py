"""Differentially private approximate Gomory-Hu trees.

Exact cut oracles, an eps-DP tree pipeline built from noised min-cut
mechanisms, tree-based cut applications, and a seeded experiment
harness for measuring additive error against ground truth.
"""

from .applications import KCutSolution, global_min_cut, min_k_cut, tree_query
from .dp import (
    INFINITE,
    Epsilon,
    LedgerEntry,
    PrivacyLedger,
    Rng,
    sample_exponential,
    sample_laplace,
)
from .exact import MaxFlowResult, gomory_hu_exact, min_st_cut_exact
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    ExperimentRow,
    env_constants,
    parse_config,
    run_experiment,
    write_csv,
)
from .generators import generate
from .graph import (
    CutSide,
    Graph,
    are_neighboring,
    contract,
    cut_weight,
    make_cut_side,
)
from .io import GraphFormatError, load_graph, load_tree, save_graph, save_tree
from .pipeline import (
    GHTreeAbort,
    StepOutput,
    StepParams,
    final_gh_tree,
    gh_tree_step,
)
from .private_cuts import (
    IsoCutParams,
    IsoCutsResult,
    isolating_cuts_exact,
    private_isolating_cuts,
    private_min_ST_cut,
    private_min_st_cut,
)
from .steiner import SteinerTree, combine_steiner, component_nodes, min_edge_on_path

__all__ = [
    "CutSide",
    "Epsilon",
    "ExperimentConfig",
    "ExperimentReport",
    "ExperimentRow",
    "GHTreeAbort",
    "Graph",
    "GraphFormatError",
    "INFINITE",
    "IsoCutParams",
    "IsoCutsResult",
    "KCutSolution",
    "LedgerEntry",
    "MaxFlowResult",
    "PrivacyLedger",
    "Rng",
    "StepOutput",
    "StepParams",
    "SteinerTree",
    "are_neighboring",
    "combine_steiner",
    "component_nodes",
    "contract",
    "cut_weight",
    "env_constants",
    "final_gh_tree",
    "generate",
    "gh_tree_step",
    "global_min_cut",
    "gomory_hu_exact",
    "isolating_cuts_exact",
    "load_graph",
    "load_tree",
    "make_cut_side",
    "min_edge_on_path",
    "min_k_cut",
    "min_st_cut_exact",
    "parse_config",
    "private_isolating_cuts",
    "private_min_ST_cut",
    "private_min_st_cut",
    "run_experiment",
    "sample_exponential",
    "sample_laplace",
    "save_graph",
    "save_tree",
    "tree_query",
    "write_csv",
]
