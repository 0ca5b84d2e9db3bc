"""Connected coalition numbers of small graphs.

A connected coalition in a connected graph pairs two disjoint vertex sets,
neither a connected dominating set on its own, whose union is one.  The
connected coalition number CC(G) is the largest number of parts in a vertex
partition where every part either is a connected dominating set by itself or
forms a connected coalition with some other part.  This package computes
CC(G) exactly on small graphs, decides CC(G) = n and CC(G) = n - 1 in
polynomial time, tests membership in the peel family characterising
CC(G) = 0, and verifies the structural theorems behind those routines over
exhaustive corpora.
"""

from .domination import (
    PARTITION_GUARD_DEFAULT,
    cds_table,
    connected_domatic_number,
    gamma_c,
)
from .errors import (
    CoalitionExpansionError,
    CoalitionsError,
    GraphFormatError,
    GuardExceededError,
    PreconditionError,
)
from .family import PeelTrace, in_family_f, replay_peel_trace
from .graphs import (
    Graph,
    corona,
    emit_edgelist,
    emit_graph6,
    enumerate_labeled_graphs,
    generate,
    is_connected,
    is_corona_of_k1,
    is_tree,
    iter_graph6_lines,
    parse_edgelist,
    parse_graph6,
)
from .matrices import (
    Decision,
    EdgeDominationMatrix,
    check_cc_equals_n,
    check_cc_equals_n_minus_1,
    edge_domination_matrix,
)
from .oracle import (
    cc_number,
    cc_partition_search,
    coalition_graph,
    expand_domatic_to_cc_partition,
    is_cc_partition,
)
from .verify import (
    THEOREMS,
    VerifyReport,
    default_corpus,
    replay_counterexample,
    run_theorem_suite,
)

__version__ = "0.1.0"

__all__ = [
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
    "parse_edgelist",
    "parse_graph6",
    "replay_counterexample",
    "replay_peel_trace",
    "run_theorem_suite",
]
