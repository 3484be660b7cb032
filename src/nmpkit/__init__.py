"""Normalized matching property toolkit.

Exact NMP decisions with certificates, Euclidean trees and tree factors,
pseudorandom bipartite graph generators and audits, the staged tree-factor
decomposition, and Monte Carlo threshold experiments.
"""

__version__ = "0.1.0"

from .decompose import (
    ApproxResult,
    DecompositionInvariantError,
    DecompositionTrace,
    ThrillExtraction,
    approx_nmp,
    approx_remainder,
    euclid_factor_decompose,
    extract_thrill,
)
from .euclid import (
    EuclideanTree,
    EuclidSchedule,
    Fan,
    Thrill,
    TreeCopy,
    TreeFactor,
    build_euclidean_tree,
    euclid_schedule,
    run_tree_process,
    trees_isomorphic,
    verify_tree_factor,
)
from .graph import (
    BipartiteGraph,
    FormatError,
    Side,
    VertexSet,
    disjoint_copies,
    edge_count_between,
    induced_subgraph,
    is_connected,
    left_set,
    load_graph,
    neighborhood,
    parse_graph,
    right_set,
    save_graph,
    serialize_graph,
)
from .harness import (
    RhoResult,
    StarArray,
    StarSolution,
    SweepConfig,
    SweepRow,
    format_star_solution,
    greedy_matching_value,
    parse_star_array,
    rho_r_bruteforce,
    solve_star_array,
    threshold_sweep,
    validate_star_fill,
)
from .nmpcheck import (
    IndependentPair,
    NMPCertificate,
    OracleResult,
    Verdict,
    check_nmp,
    kleitman_independent_check,
    nmp_oracle_bruteforce,
    validate_certificate,
    witness_transfer,
)
from .pseudo import (
    MixingAudit,
    PseudoParams,
    PseudoReport,
    RobustDeleteResult,
    SumCayleyGraph,
    estimate_thomason_params,
    gen_gnp,
    gen_pg2,
    gen_sum_cayley,
    mixing_audit,
    mixing_deviation,
    robust_delete,
    verify_thomason,
)

__all__ = [name for name in dir() if not name.startswith("_")]
