"""The package's public names, pinned so any change to the API is deliberate."""

import inspect

import coalitions

PUBLIC_NAMES = [
    "CoalitionExpansionError",
    "CoalitionsError",
    "Decision",
    "EdgeDominationMatrix",
    "Graph",
    "GraphFormatError",
    "GuardExceededError",
    "PARTITION_GUARD_DEFAULT",
    "PeelTrace",
    "PreconditionError",
    "THEOREMS",
    "VerifyReport",
    "cc_number",
    "cc_partition_search",
    "cds_table",
    "check_cc_equals_n",
    "check_cc_equals_n_minus_1",
    "coalition_graph",
    "connected_domatic_number",
    "corona",
    "corona_corpus",
    "default_corpus",
    "edge_domination_matrix",
    "emit_edgelist",
    "emit_graph6",
    "enumerate_labeled_graphs",
    "expand_domatic_to_cc_partition",
    "gamma_c",
    "generate",
    "in_family_f",
    "is_cc_partition",
    "is_connected",
    "is_corona_of_k1",
    "is_tree",
    "iter_graph6_lines",
    "join",
    "parse_edgelist",
    "parse_graph6",
    "replay_counterexample",
    "replay_peel_trace",
    "run_theorem_suite",
    "tree_corpus",
]


def test_all_is_the_pinned_sorted_list():
    assert coalitions.__all__ == PUBLIC_NAMES
    # submodules are reachable as attributes once imported; every other public name is pinned
    exported = {name for name, value in vars(coalitions).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(PUBLIC_NAMES)
