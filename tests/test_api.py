"""The package's public names, pinned so any change to the API is deliberate, and each one used;
and every refusal of a public routine that takes a graph, pinned by type and message."""

import ast
import inspect
import pathlib

import pytest

import coalitions
from coalitions import (
    CoalitionsError,
    Graph,
    GuardExceededError,
    PreconditionError,
    cc_number,
    cc_partition_search,
    cds_table,
    check_cc_equals_n,
    check_cc_equals_n_minus_1,
    connected_domatic_number,
    edge_domination_matrix,
    emit_graph6,
    expand_domatic_to_cc_partition,
    gamma_c,
    generate,
    in_family_f,
    is_cc_partition,
    run_theorem_suite,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "CoalitionExpansionError",
    "CoalitionsError",
    "Decision",
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
    "connected_domatic_number",
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
    "run_theorem_suite",
]


def test_all_is_the_pinned_sorted_list():
    assert coalitions.__all__ == PUBLIC_NAMES
    # submodules are reachable as attributes once imported; every other public name is pinned
    exported = {name for name, value in vars(coalitions).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(PUBLIC_NAMES)


def test_every_public_name_is_read_by_the_package():
    # A public name that only tests call is API kept alive for its own tests.
    # The modules import each other's names with from-imports, so a use is a
    # bare name; attributes would count str.join as a read of a join.
    read = {node.id
            for path in (ROOT / "src" / "coalitions").glob("*.py") if path.name != "__init__.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert [name for name in coalitions.__all__ if name not in read] == []


EMPTY, K1, K2 = Graph(0, []), Graph(1, []), Graph(2, [(0, 1)])
P3, STAR3, C4 = generate("path", [3]), generate("star", [3]), generate("cycle", [4])
TWO_K2, K1_K3 = Graph(4, [(0, 1), (2, 3)]), Graph(4, [(1, 2), (1, 3), (2, 3)])
EDGELESS13, STAR12, STAR20 = Graph(13, []), generate("star", [12]), generate("star", [20])


def _row(ident, call, g, error, message):
    return pytest.param(call, g, error, message, id=ident)


def _parts(*sets):
    return [frozenset(s) for s in sets]


REFUSALS = [
    _row("cc_number-order", cc_number, EMPTY, PreconditionError, "cc_number needs a graph of order >= 1, got 0"),
    _row("cc_number-guard", cc_number, STAR12, GuardExceededError, "cc_number guarded at n <= 12, got n=13"),
    # the guard comes before the disconnected shortcut
    _row("cc_number-guard-disconnected", cc_number, EDGELESS13, GuardExceededError,
         "cc_number guarded at n <= 12, got n=13"),
    _row("cc_partition_search-order", cc_partition_search, EMPTY, PreconditionError,
         "cc search needs a graph of order >= 1, got 0"),
    _row("cc_partition_search-guard", cc_partition_search, EDGELESS13, GuardExceededError,
         "cc search guarded at n <= 12, got n=13"),
    _row("is_cc_partition-order", lambda g: is_cc_partition(g, []), EMPTY, PreconditionError,
         "is_cc_partition needs a graph of order >= 1, got 0"),
    _row("is_cc_partition-id", lambda g: is_cc_partition(g, [{0, 1.0, 2}]), P3, PreconditionError,
         "part 0 contains 1.0, which is no int vertex id"),
    _row("is_cc_partition-range", lambda g: is_cc_partition(g, _parts({0, 1, 2}, {3})), P3, PreconditionError,
         "part 1 contains vertex 3, outside 0..2"),
    _row("is_cc_partition-empty", lambda g: is_cc_partition(g, _parts({0, 1, 2}, ())), P3, PreconditionError,
         "part 1 is empty"),
    _row("is_cc_partition-overlap", lambda g: is_cc_partition(g, _parts({0, 1}, {1, 2})), P3, PreconditionError,
         "part 1 overlaps an earlier part"),
    _row("is_cc_partition-cover", lambda g: is_cc_partition(g, _parts({1})), P3, PreconditionError,
         "partition misses vertices [0, 2]"),
    _row("connected_domatic_number-order", connected_domatic_number, EMPTY, PreconditionError,
         "connected_domatic_number needs a graph of order >= 1, got 0"),
    _row("connected_domatic_number-connected", connected_domatic_number, TWO_K2, PreconditionError,
         "connected_domatic_number undefined for disconnected graphs"),
    # connectivity comes before the guard
    _row("connected_domatic_number-connected-13", connected_domatic_number, EDGELESS13, PreconditionError,
         "connected_domatic_number undefined for disconnected graphs"),
    _row("connected_domatic_number-guard", connected_domatic_number, STAR12, GuardExceededError,
         "connected_domatic_number guarded at n <= 12, got n=13"),
    _row("gamma_c-order", gamma_c, EMPTY, PreconditionError, "gamma_c needs a graph of order >= 1, got 0"),
    _row("gamma_c-connected", gamma_c, TWO_K2, PreconditionError, "gamma_c undefined for disconnected graphs"),
    _row("gamma_c-table", gamma_c, STAR20, GuardExceededError, "cds_table supports n <= 20, got 21"),
    _row("cds_table-table", cds_table, STAR20, GuardExceededError, "cds_table supports n <= 20, got 21"),
    _row("in_family_f-order", in_family_f, EMPTY, PreconditionError,
         "family membership needs a graph of order >= 1, got 0"),
    _row("check_cc_equals_n-order", check_cc_equals_n, K1, PreconditionError,
         "the CC = n check needs a graph of order >= 2, got 1"),
    # the order comes before connectivity: the order-0 graph counts as disconnected
    _row("check_cc_equals_n-order-empty", check_cc_equals_n, EMPTY, PreconditionError,
         "the CC = n check needs a graph of order >= 2, got 0"),
    _row("check_cc_equals_n-connected", check_cc_equals_n, TWO_K2, PreconditionError,
         "the CC = n check undefined for disconnected graphs"),
    # no vertex of a disconnected graph is full, but each vertex of K_1 and K_3 is full in its component
    _row("check_cc_equals_n-connected-components-with-full", check_cc_equals_n, K1_K3, PreconditionError,
         "the CC = n check undefined for disconnected graphs"),
    _row("check_cc_equals_n-full", check_cc_equals_n, P3, PreconditionError,
         "the CC = n check requires no full vertex; vertex 1 is full"),
    # the variant is read before the graph
    _row("check_cc_equals_n_minus_1-variant", lambda g: check_cc_equals_n_minus_1(g, "fast"), EMPTY,
         PreconditionError, "unknown variant 'fast'; expected one of ('paper', 'strict')"),
    # the order comes before the full vertices: both vertices of K_2 are full
    _row("check_cc_equals_n_minus_1-order", check_cc_equals_n_minus_1, K2, PreconditionError,
         "the CC = n-1 check needs a graph of order >= 3, got 2"),
    _row("check_cc_equals_n_minus_1-connected", check_cc_equals_n_minus_1, TWO_K2, PreconditionError,
         "the CC = n-1 check undefined for disconnected graphs"),
    _row("check_cc_equals_n_minus_1-connected-components-with-full", lambda g: check_cc_equals_n_minus_1(g, "paper"),
         K1_K3, PreconditionError, "the CC = n-1 check undefined for disconnected graphs"),
    _row("check_cc_equals_n_minus_1-full", check_cc_equals_n_minus_1, STAR3, PreconditionError,
         "the CC = n-1 check requires no full vertex; vertex 0 is full"),
    _row("expand_domatic_to_cc_partition-order", lambda g: expand_domatic_to_cc_partition(g, _parts({0})), K1,
         PreconditionError, "expansion needs a graph of order >= 2, got 1"),
    _row("expand_domatic_to_cc_partition-connected",
         lambda g: expand_domatic_to_cc_partition(g, _parts({0, 1}, {2, 3})), TWO_K2, PreconditionError,
         "expansion undefined for disconnected graphs"),
    _row("expand_domatic_to_cc_partition-full", lambda g: expand_domatic_to_cc_partition(g, _parts({0, 1, 2})),
         P3, PreconditionError, "expansion requires no full vertex; vertex 1 is full"),
    _row("expand_domatic_to_cc_partition-cover", lambda g: expand_domatic_to_cc_partition(g, _parts({0, 1, 2})),
         C4, PreconditionError, "partition misses vertices [3]"),
    _row("expand_domatic_to_cc_partition-cds",
         lambda g: expand_domatic_to_cc_partition(g, _parts({0, 1}, {2}, {3})), C4, PreconditionError,
         "part 1 of the claimed domatic partition is not a connected dominating set"),
    _row("edge_domination_matrix-edges", edge_domination_matrix, Graph(3, []), PreconditionError,
         "edge-domination matrix needs a graph with at least one edge"),
    _row("emit_graph6-order", emit_graph6, Graph(258048, []), PreconditionError,
         "graph6 supports n <= 258047, got 258048"),
    _row("run_theorem_suite-guard", lambda g: run_theorem_suite([g]), EDGELESS13, GuardExceededError,
         "corpus graph of order 13 exceeds the oracle guard 12"),
]


@pytest.mark.parametrize("call, g, error, message", REFUSALS)
def test_each_refusal_is_pinned(call, g, error, message):
    # a refusal keeps its type, so the CLI keeps its exit code: 3 for PreconditionError, 4 for the guard
    with pytest.raises(CoalitionsError) as info:
        call(g)
    assert (type(info.value), str(info.value)) == (error, message)
