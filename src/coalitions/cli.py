"""Command-line interface.

One subcommand per library entry point.  Graph input comes from a file or
from standard input as '-'; graph6 is the default format, and the edge-list
format is selected by extension (.el, .edgelist) or by --format.  Multi-line
graph6 input produces one result line per graph, printed as each graph is
read, so a malformed line ends the run after the lines before it.  Exit
codes: 0 for a computed answer, 1 for answer-no under --status-exit, 2 for
usage errors, 3 for precondition or format errors, 4 for an exceeded search
guard; a reader that closes standard output early ends the run quietly with
0.  Input that is not UTF-8 text is bad input, exit 3.
"""

import argparse
import contextlib
import json
import os
import sys

from .domination import PARTITION_GUARD_DEFAULT, connected_domatic_number, gamma_c
from .errors import CoalitionsError, GraphFormatError, GuardExceededError
from .family import in_family_f
from .graphs import (
    GENERATOR_FAMILIES,
    emit_edgelist,
    emit_graph6,
    generate,
    iter_graph6_lines,
    parse_edgelist,
)
from .matrices import VARIANTS, check_cc_equals_n, check_cc_equals_n_minus_1, edge_domination_matrix
from .oracle import cc_number
from .verify import default_corpus, run_theorem_suite


def _open_input(path):
    """The file at path, or standard input (left open on exit) for '-', read as strict UTF-8."""
    if path == "-":
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(encoding="utf-8", errors="strict")
        return contextlib.nullcontext(sys.stdin)
    return open(path, encoding="utf-8")


def _nonempty(graphs):
    """Yield the graphs, then refuse an input that held none."""
    g = None
    for g in graphs:
        yield g
    if g is None:
        raise GraphFormatError("input contains no graphs")


def _load_graphs(path, fmt):
    """Yield the input graphs as they parse; graph6 unless the extension or --format says edge list."""
    if fmt is None:
        fmt = "edgelist" if path.endswith((".el", ".edgelist")) else "g6"
    with _open_input(path) as fh:
        if fmt == "edgelist":
            yield parse_edgelist(fh.read())
        else:
            yield from _nonempty(iter_graph6_lines(fh))


def _run_per_graph(args):
    """Print args.answer's line for each input graph as it is read.

    answer(g, args) returns (line, yes), building only the printed form: JSON
    under --json, otherwise text; --status-exit turns any no into exit code 1.
    """
    all_yes = True
    for g in _load_graphs(args.input, args.format):
        line, yes = args.answer(g, args)
        print(line)
        all_yes = all_yes and yes
    return 1 if getattr(args, "status_exit", False) and not all_yes else 0


def _cc(g, args):
    cc, witness = cc_number(g, args.guard)
    wit = None if witness is None else [sorted(p) for p in witness]
    return (json.dumps({"cc": cc, "witness": wit}) if args.json
            else f"cc={cc} witness={'none' if wit is None else json.dumps(wit)}"), cc != 0


def _decision_line(decision, as_json):
    """A decider's Decision as (line, yes); check-n's carries no variant."""
    if as_json:
        payload = decision.as_dict()
        if decision.variant is None:
            del payload["variant"]
        return json.dumps(payload), decision.answer
    text = f"answer={'yes' if decision.answer else 'no'}"
    if decision.variant is not None:
        text += f" variant={decision.variant}"
    if decision.answer:
        # dumps writes int keys as strings and tuples as lists, as as_dict's round trip does
        text += f" witness={json.dumps(decision.witness)}"
    else:
        text += f" reason={decision.reason}"
    return text, decision.answer


def _check_n(g, args):
    return _decision_line(check_cc_equals_n(g), args.json)


def _check_n1(g, args):
    return _decision_line(check_cc_equals_n_minus_1(g, args.variant), args.json)


def _family_f(g, args):
    member, trace = in_family_f(g)
    steps = [[v, r] for v, r in trace.steps]
    if args.json:
        return json.dumps({"member": member, "terminal": trace.terminal, "steps": steps}), member
    return (f"member={'yes' if member else 'no'} terminal={trace.terminal} "
            f"steps={json.dumps(steps)}"), member


def _gamma_c(g, args):
    size, witness = gamma_c(g)
    wit = sorted(witness)
    return (json.dumps({"gamma_c": size, "witness": wit}) if args.json
            else f"gamma_c={size} witness={json.dumps(wit)}"), True


def _domatic(g, args):
    k, parts = connected_domatic_number(g, args.guard)
    wit = [sorted(p) for p in parts]
    return (json.dumps({"d_c": k, "witness": wit}) if args.json
            else f"d_c={k} witness={json.dumps(wit)}"), True


def _dump_matrix(g, args):
    rows = edge_domination_matrix(g)
    lines = [f"{len(rows)} {g.n}"]
    for mask in rows:
        lines.append(" ".join(str(mask >> x & 1) for x in range(g.n)))
    return "\n".join(lines), True


def _cmd_gen(args):
    g = generate(args.family, args.params)
    print(emit_graph6(g) if args.format == "g6" else emit_edgelist(g))
    return 0


def _cmd_verify(args):
    ids = None if args.theorems is None else args.theorems.split(",")
    if args.corpus:
        graphs, label = _load_graphs(args.corpus, "g6"), f"graph6 file {args.corpus}"
    else:
        graphs = _nonempty(default_corpus(args.n_max, args.connected_only))
        label = f"labeled graphs n <= {args.n_max}" + (", connected only" if args.connected_only else "")
    report = run_theorem_suite(graphs, ids, corpus_label=label, guard=args.guard)
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
        _add_guard(sp)


def _add_guard(sp):
    sp.add_argument("--guard", type=int, default=PARTITION_GUARD_DEFAULT,
                    help=f"partition-search size guard (default {PARTITION_GUARD_DEFAULT})")


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it reports an argument it does not know with its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="coalitions",
        description="Connected coalition numbers of small graphs: exact oracle, "
                    "polynomial checkers, generators, and a theorem verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

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
    sp.add_argument("--format", choices=("g6", "edgelist"), default="g6",
                    help="output format (default g6)")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("dump-matrix", help="edge-domination matrix in the plain text dump format")
    _add_input(sp)
    sp.set_defaults(func=_run_per_graph, answer=_dump_matrix)

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
    _add_guard(sp)
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
    except (CoalitionsError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
