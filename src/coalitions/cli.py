"""Command-line interface.

One subcommand per library entry point.  Graph input comes from a file or
from standard input as '-'; graph6 is the default format, and the edge-list
format is selected by extension (.el, .edgelist) or by --format.  Multi-line
graph6 input produces one result line per graph, printed as each graph is
read, so a malformed line ends the run after the lines before it.  Exit
codes: 0 for a computed answer, 1 for answer-no under --status-exit, 2 for
usage errors, 3 for precondition or format errors, 4 for an exceeded search
guard; a reader that closes standard output early ends the run quietly with
0.  The CC_GUARD_N environment variable overrides the partition-search
guard; an explicit --guard flag wins over it.
"""

import argparse
import contextlib
import json
import os
import sys

from .domination import PARTITION_GUARD_DEFAULT, connected_domatic_number, gamma_c
from .errors import CoalitionsError, GraphFormatError, GuardExceededError, PreconditionError
from .family import in_family_f
from .graphs import (
    GENERATOR_FAMILIES,
    Graph,
    corona,
    emit_edgelist,
    emit_graph6,
    generate,
    iter_graph6_lines,
    parse_edgelist,
)
from .matrices import VARIANTS, check_cc_equals_n, check_cc_equals_n_minus_1, edge_domination_matrix
from .oracle import cc_number, coalition_graph
from .verify import default_corpus, run_theorem_suite


def _open_input(path):
    """The file at path opened for reading, or standard input (left open on exit) for '-'."""
    if path == "-":
        return contextlib.nullcontext(sys.stdin)
    return open(path, encoding="utf-8")


def _load_graphs(path, fmt):
    """Yield the input graphs as they parse; graph6 unless the extension or --format says edge list."""
    if fmt is None:
        fmt = "edgelist" if path.endswith((".el", ".edgelist")) else "g6"
    g = None
    with _open_input(path) as fh:
        if fmt == "edgelist":
            yield parse_edgelist(fh.read())
            return
        for g in iter_graph6_lines(fh):
            yield g
    if g is None:
        raise GraphFormatError("input contains no graphs")


def _resolve_guard(args):
    if args.guard is not None:
        return args.guard
    env = os.environ.get("CC_GUARD_N")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise PreconditionError(f"CC_GUARD_N must be an integer, got {env!r}")
    return PARTITION_GUARD_DEFAULT


def _write_lines(out, lines):
    body = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _run_per_graph(args):
    """Print args.answer's line for each input graph as it is read.

    answer(g, args) returns (payload, text, yes): --json prints the payload,
    otherwise the text; --status-exit turns any no into exit code 1.  A
    subcommand with --guard has it resolved once, before any input is read.
    """
    if hasattr(args, "guard"):
        args.guard = _resolve_guard(args)
    all_yes = True
    for g in _load_graphs(args.input, args.format):
        payload, text, yes = args.answer(g, args)
        print(json.dumps(payload) if args.json else text)
        all_yes = all_yes and yes
    return 1 if getattr(args, "status_exit", False) and not all_yes else 0


def _cc(g, args):
    cc, witness = cc_number(g, args.guard)
    wit = None if witness is None else [sorted(p) for p in witness]
    text = f"cc={cc} witness={'none' if wit is None else json.dumps(wit)}"
    return {"cc": cc, "witness": wit}, text, cc != 0


def _decision_line(decision):
    """A decider's Decision as (payload, text, yes); check-n's carries no variant."""
    payload = decision.as_dict()
    text = f"answer={'yes' if decision.answer else 'no'}"
    if decision.variant is None:
        del payload["variant"]
    else:
        text += f" variant={decision.variant}"
    if decision.answer:
        text += f" witness={json.dumps(payload['witness'])}"
    else:
        text += f" reason={decision.reason}"
    return payload, text, decision.answer


def _check_n(g, args):
    return _decision_line(check_cc_equals_n(g))


def _check_n1(g, args):
    return _decision_line(check_cc_equals_n_minus_1(g, args.variant))


def _family_f(g, args):
    member, trace = in_family_f(g)
    steps = [[v, r] for v, r in trace.steps]
    text = (f"member={'yes' if member else 'no'} terminal={trace.terminal} "
            f"steps={json.dumps(steps)}")
    return {"member": member, "terminal": trace.terminal, "steps": steps}, text, member


def _gamma_c(g, args):
    size, witness = gamma_c(g)
    wit = sorted(witness)
    return {"gamma_c": size, "witness": wit}, f"gamma_c={size} witness={json.dumps(wit)}", True


def _domatic(g, args):
    k, parts = connected_domatic_number(g, args.guard)
    wit = [sorted(p) for p in parts]
    return {"d_c": k, "witness": wit}, f"d_c={k} witness={json.dumps(wit)}", True


def _cmd_gen(args):
    g = generate(args.family, args.params)
    text = emit_graph6(g) if args.format == "g6" else emit_edgelist(g)
    _write_lines(args.out, [text])
    return 0


def _cmd_corona(args):
    k1 = Graph(1, [])
    lines = [emit_graph6(corona(g, k1)) for g in _load_graphs(args.input, args.format)]
    _write_lines(args.out, lines)
    return 0


def _cmd_ccg(args):
    graphs = list(_load_graphs(args.input, args.format))
    if len(graphs) != 1:
        raise PreconditionError(f"ccg expects exactly one input graph, got {len(graphs)}")
    with open(args.partition, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"partition file is not valid JSON: {exc}")
    if not isinstance(raw, list) or not all(
        isinstance(p, list) and all(type(v) is int for v in p) for p in raw
    ):
        raise GraphFormatError("partition file must hold an array of arrays of vertex ids")
    print(emit_graph6(coalition_graph(graphs[0], [frozenset(p) for p in raw])))
    return 0


def _cmd_dump_matrix(args):
    for g in _load_graphs(args.input, args.format):
        print(edge_domination_matrix(g).to_text())
    return 0


def _cmd_verify(args):
    guard = _resolve_guard(args)
    ids = args.theorems.split(",") if args.theorems else None
    if args.corpus:
        with _open_input(args.corpus) as fh:
            report = run_theorem_suite(iter_graph6_lines(fh), ids,
                                       corpus_label=f"graph6 file {args.corpus}", guard=guard)
    else:
        label = f"labeled graphs n <= {args.n_max}"
        if args.connected_only:
            label += ", connected only"
        report = run_theorem_suite(default_corpus(args.n_max, args.connected_only), ids,
                                   corpus_label=label, guard=guard)
    print(report.summary_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 1 if args.status_exit and report.failing() else 0


def _add_input(sp):
    sp.add_argument("input", help="graph file, or - for standard input")
    sp.add_argument("--format", choices=("g6", "edgelist"), default=None,
                    help="input format; default graph6 unless the extension is .el/.edgelist")


def _add_io_flags(sp, status=False, guard=False):
    _add_input(sp)
    sp.add_argument("--json", action="store_true", help="emit one JSON object per graph")
    if status:
        sp.add_argument("--status-exit", action="store_true",
                        help="exit 1 when any answer is no")
    if guard:
        sp.add_argument("--guard", type=int, default=None,
                        help=f"partition-search size guard (default {PARTITION_GUARD_DEFAULT}, or CC_GUARD_N)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="coalitions",
        description="Connected coalition numbers of small graphs: exact oracle, "
                    "polynomial checkers, generators, and a theorem verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("cc", help="exact connected coalition number with witness partition")
    _add_io_flags(sp, status=True, guard=True)
    sp.set_defaults(func=_run_per_graph, answer=_cc)

    sp = sub.add_parser("check-n", help="polynomial decider for CC = n")
    _add_io_flags(sp, status=True)
    sp.set_defaults(func=_run_per_graph, answer=_check_n)

    sp = sub.add_parser("check-n1", help="polynomial decider for CC = n-1")
    _add_io_flags(sp, status=True)
    sp.add_argument("--variant", choices=VARIANTS, default="strict",
                    help="paper: the pair rule as stated; strict: adds the non-CDS pair "
                         "guard and requires the CC = n check to fail (default)")
    sp.set_defaults(func=_run_per_graph, answer=_check_n1)

    sp = sub.add_parser("family-f", help="membership in the peel family (CC = 0)")
    _add_io_flags(sp, status=True)
    sp.set_defaults(func=_run_per_graph, answer=_family_f)

    sp = sub.add_parser("gamma-c", help="connected domination number with witness")
    _add_io_flags(sp)
    sp.set_defaults(func=_run_per_graph, answer=_gamma_c)

    sp = sub.add_parser("domatic", help="connected domatic number with witness partition")
    _add_io_flags(sp, guard=True)
    sp.set_defaults(func=_run_per_graph, answer=_domatic)

    sp = sub.add_parser("gen", help="generate a standard family member")
    sp.add_argument("family", choices=GENERATOR_FAMILIES)
    sp.add_argument("params", nargs="+", type=int, help="family parameters")
    sp.add_argument("--out", default=None, help="write to a file instead of standard output")
    sp.add_argument("--format", choices=("g6", "edgelist"), default="g6",
                    help="output format (default g6)")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("corona", help="attach one pendant to every vertex (corona with K_1)")
    _add_input(sp)
    sp.add_argument("attach", choices=("k1",), help="what to attach (only k1 is supported)")
    sp.add_argument("--out", default=None, help="write to a file instead of standard output")
    sp.set_defaults(func=_cmd_corona)

    sp = sub.add_parser("ccg", help="coalition graph of a valid partition, as graph6")
    _add_input(sp)
    sp.add_argument("--partition", required=True,
                    help="JSON file holding an array of arrays of vertex ids")
    sp.set_defaults(func=_cmd_ccg)

    sp = sub.add_parser("dump-matrix", help="edge-domination matrix in the plain text dump format")
    _add_input(sp)
    sp.set_defaults(func=_cmd_dump_matrix)

    sp = sub.add_parser("verify", help="run the theorem suite over a corpus")
    sp.add_argument("--n-max", type=int, default=6,
                    help="largest order for the built-in labeled corpus (default 6)")
    sp.add_argument("--connected-only", action="store_true",
                    help="restrict the built-in corpus to connected graphs")
    sp.add_argument("--theorems", default=None,
                    help="comma-separated theorem ids, e.g. t1,t5 (default: all)")
    sp.add_argument("--corpus", default=None,
                    help="graph6 file to verify instead of the built-in corpus")
    sp.add_argument("--out", default=None, help="write the JSON report to this file")
    sp.add_argument("--status-exit", action="store_true",
                    help="exit 1 when any asserted theorem has counterexamples")
    sp.add_argument("--guard", type=int, default=None,
                    help=f"partition-search size guard (default {PARTITION_GUARD_DEFAULT}, or CC_GUARD_N)")
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output (`... | head -1`): nothing is wrong with the input.
        # Point the descriptor at devnull so the interpreter's own final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (CoalitionsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
