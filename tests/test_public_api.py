import nmpkit

# Every public name of the package, submodules included. A change that adds
# or drops one must update this list on purpose.
PUBLIC_NAMES = [
    "ApproxResult", "BipartiteGraph", "DecompositionInvariantError", "DecompositionTrace",
    "EuclidSchedule", "EuclideanTree", "Fan", "FormatError",
    "IndependentPair", "MixingAudit", "NMPCertificate", "OracleResult", "PseudoParams",
    "PseudoReport", "RhoResult", "RobustDeleteResult", "Side", "StarArray", "StarSolution",
    "SumCayleyGraph", "SweepConfig", "SweepRow", "Thrill", "ThrillExtraction", "TreeCopy",
    "TreeFactor", "Verdict", "VertexSet", "approx_nmp", "approx_remainder",
    "build_euclidean_tree", "check_nmp", "decompose", "disjoint_copies", "edge_count_between",
    "estimate_thomason_params", "euclid", "euclid_factor_decompose", "euclid_schedule",
    "extract_thrill", "flow", "format_star_solution", "gen_gnp", "gen_pg2", "gen_sum_cayley",
    "graph", "greedy_matching_value", "harness", "induced_subgraph", "is_connected",
    "kleitman_independent_check", "left_set", "load_graph", "mixing_audit", "mixing_deviation",
    "neighborhood", "nmp_oracle_bruteforce", "nmpcheck", "parse_graph", "parse_star_array",
    "pseudo", "rho_r_bruteforce", "right_set", "rng", "robust_delete", "run_tree_process",
    "save_graph", "serialize_graph", "solve_star_array", "threshold_sweep", "trees_isomorphic",
    "validate_certificate", "validate_star_fill", "verify_thomason", "verify_tree_factor",
    "witness_transfer",
]


def test_public_names_are_pinned():
    assert sorted(nmpkit.__all__) == PUBLIC_NAMES
