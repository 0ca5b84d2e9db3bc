"""The package's public names, pinned so any change to the API is deliberate, and each one used."""

import ast
import inspect
import pathlib
import re

import coalitions

ROOT = pathlib.Path(__file__).resolve().parent.parent

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


def test_all_is_the_pinned_sorted_list():
    assert coalitions.__all__ == PUBLIC_NAMES
    # submodules are reachable as attributes once imported; every other public name is pinned
    exported = {name for name, value in vars(coalitions).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(PUBLIC_NAMES)


def test_every_public_name_is_read_by_the_package_or_documented():
    # A public name that only tests call is API kept alive for its own tests.
    # The modules import each other's names with from-imports, so a use is a
    # bare name; attributes would count str.join as a read of a join.
    read = {node.id
            for path in (ROOT / "src" / "coalitions").glob("*.py") if path.name != "__init__.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = [name for name in coalitions.__all__
              if name not in read and not re.search(rf"\b{name}\b", readme)]
    assert unused == []
