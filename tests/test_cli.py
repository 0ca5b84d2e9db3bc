"""Command-line surface: output formats, exit codes, guards, input handling.

Everything runs in-process through cli.main so exit codes and streams can be
asserted without spawning interpreters, except the closed-pipe case, which
needs a real pipe, and the decoding of standard input, which needs a real
stream.
"""

import io
import json
import os
import subprocess
import sys

import pytest

from coalitions import Graph, cc_number, cli, emit_graph6, generate, in_family_f

C6_MATRIX_BYTES = (
    "6 6\n"
    "1 1 1 0 0 1\n"
    "1 1 0 0 1 1\n"
    "1 1 1 1 0 0\n"
    "0 1 1 1 1 0\n"
    "0 0 1 1 1 1\n"
    "1 0 0 1 1 1\n"
)


@pytest.fixture
def run(capsys, monkeypatch):
    def _run(argv, stdin=None, env=None):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        for key, value in (env or {}).items():
            monkeypatch.setenv(key, value)
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestGen:
    def test_graph6_to_stdout(self, run):
        code, out, err = run(["gen", "cycle", "6"])
        assert (code, out, err) == (0, "EhEG\n", "")

    def test_edgelist_format(self, run):
        code, out, _ = run(["gen", "path", "3", "--format", "edgelist"])
        assert code == 0 and out == "3\n0 1\n1 2\n"

    def test_out_flag_is_a_usage_error(self, run, tmp_path):
        # gen prints to standard output only
        assert run(["gen", "cycle", "4", "--out", str(tmp_path / "c4.g6")])[0] == 2

    def test_constraint_violation_exits_3(self, run):
        code, _, err = run(["gen", "cycle", "2"])
        assert code == 3 and "cycle needs n >= 3" in err

    def test_bench_startup_probe_runs(self, run):
        # bench/run.py's traced runs time the CLI's startup by spawning this
        # command with check=True, so a failing gen fails every traced run.
        # gen can go only once that probe moves to a command that stays (ROADMAP F).
        assert run(["gen", "path", "1"]) == (0, "@\n", "")

    def test_wrong_arity_exits_3(self, run):
        code, _, err = run(["gen", "complete_bipartite", "3"])
        assert code == 3 and "takes 2 parameter" in err

    def test_unknown_family_is_a_usage_error(self, run):
        code, _, _ = run(["gen", "moebius", "5"])
        assert code == 2


class TestDumpMatrix:
    def test_c6_golden_bytes(self, run):
        code, out, _ = run(["dump-matrix", "-"], stdin="EhEG\n")
        assert code == 0 and out == C6_MATRIX_BYTES

    def test_piped_from_gen(self, run, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("EhEG\n")
        code, out, _ = run(["dump-matrix", str(path)])
        assert code == 0 and out == C6_MATRIX_BYTES

    def test_edgeless_graph_exits_3(self, run):
        code, _, err = run(["dump-matrix", "-"], stdin="@\n")
        assert code == 3 and "at least one edge" in err


class TestCc:
    def test_text_output(self, run):
        code, out, _ = run(["cc", "-"], stdin="EhEG\n")
        assert code == 0
        assert out == "cc=3 witness=[[0, 1, 2, 4], [3], [5]]\n"

    def test_json_output(self, run):
        code, out, _ = run(["cc", "-", "--json"], stdin="Cl\n")
        assert code == 0
        assert json.loads(out) == {"cc": 4, "witness": [[0], [1], [2], [3]]}

    def test_multi_line_input_gives_one_line_each(self, run):
        code, out, _ = run(["cc", "-", "--json"], stdin="Cl\nEhEG\n")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["cc"] == 4
        assert json.loads(lines[1])["cc"] == 3

    def test_zero_answer_text_and_status_exit(self, run):
        code, out, _ = run(["cc", "-"], stdin="Bg\n")  # P_3
        assert code == 0 and out == "cc=0 witness=none\n"
        code, _, _ = run(["cc", "-", "--status-exit"], stdin="Bg\n")
        assert code == 1

    def test_guard_flag_and_env(self, run):
        k13 = "L" + "~" * 13  # K_13: header chr(63+13), then all-ones payload
        code, _, err = run(["cc", "-"], stdin=k13 + "\n")
        assert code == 4 and "guarded at n <= 12" in err
        code, out, _ = run(["cc", "-", "--guard", "13"], stdin=k13 + "\n")
        assert code == 0 and out.startswith("cc=13 ")
        # only the flag sets the guard: the environment does not
        code, out, err = run(["cc", "-"], stdin=k13 + "\n", env={"CC_GUARD_N": "13"})
        assert (code, out) == (4, "") and "guarded at n <= 12" in err


class TestDeciders:
    def test_check_n_yes(self, run):
        code, out, _ = run(["check-n", "-", "--json"], stdin="Cl\n")
        assert code == 0
        data = json.loads(out)
        assert data["answer"] is True
        assert data["witness"]["0"] == [0, 1]

    def test_check_n_no_with_status_exit(self, run):
        code, out, _ = run(["check-n", "-"], stdin="EhEG\n")
        assert code == 0 and out.startswith("answer=no reason=vertex 0")
        code, _, _ = run(["check-n", "-", "--status-exit"], stdin="EhEG\n")
        assert code == 1

    def test_check_n_text_goldens(self, run):
        code, out, _ = run(["check-n", "-"], stdin="Cl\n")
        assert code == 0
        assert out == 'answer=yes witness={"0": [0, 1], "1": [0, 1], "2": [1, 2], "3": [0, 3]}\n'
        code, out, _ = run(["check-n", "-"], stdin="EhEG\n")
        assert code == 0
        assert out == "answer=no reason=vertex 0 has no incident edge whose row sums to 6\n"

    def test_check_n_precondition_exits_3(self, run):
        code, _, err = run(["check-n", "-"], stdin="Bg\n")
        assert code == 3 and "full" in err

    def test_check_n1_defaults_to_strict(self, run):
        code, out, _ = run(["check-n1", "-"], stdin="Cl\n")
        assert code == 0
        assert out.startswith("answer=no variant=strict")

    def test_check_n1_paper_variant(self, run):
        code, out, _ = run(["check-n1", "-", "--variant", "paper", "--json"], stdin="Cl\n")
        assert code == 0
        data = json.loads(out)
        assert data["answer"] is True and data["variant"] == "paper"

    def test_check_n1_text_goldens(self, run):
        code, out, _ = run(["check-n1", "-"], stdin="Dhs\n")  # the house
        assert code == 0
        assert out == ('answer=yes variant=strict witness={"u": 0, "v": 1, "y": 2, "justification": '
                       '{"2": ["triple", [2, 0, 1]], "3": ["edge", [3, 4]], "4": ["edge", [3, 4]]}}\n')
        code, out, _ = run(["check-n1", "-", "--variant", "paper"], stdin="Cl\n")
        assert code == 0
        assert out == ('answer=yes variant=paper witness={"u": 0, "v": 1, "y": 2, "justification": '
                       '{"2": ["edge", [2, 3]], "3": ["edge", [2, 3]]}}\n')
        code, out, _ = run(["check-n1", "-"], stdin="Cl\n")
        assert code == 0
        assert out == ("answer=no variant=strict reason=the CC = n check already succeeds, "
                       "which rules out CC = n-1\n")
        code, out, _ = run(["check-n1", "-", "--variant", "paper"], stdin="EhEG\n")
        assert code == 0
        assert out == "answer=no variant=paper reason=no qualifying vertex pair (u, v)\n"

    def test_check_n1_house_witness(self, run, house):
        from coalitions import emit_graph6

        code, out, _ = run(["check-n1", "-", "--json"], stdin=emit_graph6(house) + "\n")
        assert code == 0
        witness = json.loads(out)["witness"]
        assert (witness["u"], witness["v"], witness["y"]) == (0, 1, 2)

    def test_check_n1_reads_graph6_above_62_vertices(self, run):
        from coalitions import emit_graph6, generate

        code, out, _ = run(["check-n1", "-"], stdin=emit_graph6(generate("cycle", [2000])) + "\n")
        assert code == 0
        assert out == "answer=no variant=strict reason=no qualifying vertex pair (u, v)\n"


class TestFamilyAndDomination:
    def test_family_f_member(self, run):
        code, out, _ = run(["family-f", "-"], stdin="Bg\n")
        assert code == 0
        assert out == "member=yes terminal=disconnected_ge2 steps=[[1, 2]]\n"

    def test_family_f_non_member_status_exit(self, run):
        code, _, _ = run(["family-f", "-", "--status-exit"], stdin="Cl\n")
        assert code == 1

    def test_gamma_c(self, run):
        code, out, _ = run(["gamma-c", "-"], stdin="EhEG\n")
        assert code == 0 and out == "gamma_c=4 witness=[0, 1, 2, 3]\n"

    def test_gamma_c_guard_exits_4(self, run):
        star = emit_graph6(generate("star", [20]))  # 21 vertices
        code, out, err = run(["gamma-c", "-"], stdin=star + "\n")
        assert (code, out) == (4, "") and "n <= 20, got 21" in err

    def test_gamma_c_disconnected_exits_3(self, run):
        code, _, err = run(["gamma-c", "-"], stdin="C`\n")  # two disjoint edges
        assert code == 3 and "disconnected" in err

    def test_domatic(self, run):
        code, out, _ = run(["domatic", "-"], stdin="Cl\n")
        assert code == 0 and out == "d_c=2 witness=[[0, 1], [2, 3]]\n"

    def test_no_status_exit_flag_without_a_no_answer(self, run):
        # gamma-c and domatic always compute an answer, so they take no --status-exit
        assert run(["gamma-c", "-", "--status-exit"], stdin="Cl\n")[0] == 2
        assert run(["domatic", "-", "--status-exit"], stdin="Cl\n")[0] == 2


PER_GRAPH_COMMANDS = [
    (["cc", "-"], True),
    (["check-n", "-"], True),
    (["check-n1", "-"], True),
    (["family-f", "-"], True),
    (["gamma-c", "-"], True),
    (["domatic", "-"], True),
    (["dump-matrix", "-"], False),
]


class TestPerGraphCommands:
    @pytest.mark.parametrize("argv, takes_json", PER_GRAPH_COMMANDS,
                             ids=[argv[0] for argv, _ in PER_GRAPH_COMMANDS])
    def test_shared_runner_contract(self, run, argv, takes_json):
        code, first, _ = run(argv, stdin="Cl\n")
        assert code == 0 and first.endswith("\n")
        # results stream as the input is read: the line before the bad one is already out
        code, out, err = run(argv, stdin="Cl\nEhE\n")
        assert (code, out) == (3, first)
        assert err.startswith("error: ") and "truncated" in err
        assert run(argv + ["--json"], stdin="Cl\n")[0] == (0 if takes_json else 2)


class TestUsageErrors:
    """An unknown argument is reported with the usage line of the parser that met it: the
    command's own after the command, and the top-level one, which lists every command, before it."""

    @pytest.mark.parametrize("argv, usage, error", [
        (["gamma-c", "-", "--status-exit"],
         "usage: coalitions gamma-c [-h] [--format {g6,edgelist}] [--json] input",
         "coalitions gamma-c: error: unrecognized arguments: --status-exit"),
        (["dump-matrix", "-", "--json"],
         "usage: coalitions dump-matrix [-h] [--format {g6,edgelist}] input",
         "coalitions dump-matrix: error: unrecognized arguments: --json"),
        (["--json", "cc", "-"],
         "usage: coalitions [-h]",
         "coalitions: error: unrecognized arguments: --json"),
    ])
    def test_stderr_names_the_parser(self, run, argv, usage, error):
        code, out, err = run(argv, stdin="Cl\n", env={"COLUMNS": "80"})
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert (lines[0], lines[-1]) == (usage, error)


class TestInputHandling:
    def test_edgelist_by_extension(self, run, tmp_path):
        path = tmp_path / "p6.el"
        path.write_text("6\n0 1\n1 2\n2 3\n3 4\n4 5\n")
        code, out, _ = run(["cc", str(path)])
        assert code == 0 and out == "cc=2 witness=[[0, 1, 2, 3, 5], [4]]\n"

    def test_edgelist_from_stdin_needs_the_flag(self, run):
        text = "3\n0 1\n1 2\n"
        code, out, _ = run(["family-f", "-", "--format", "edgelist"], stdin=text)
        assert code == 0 and out.startswith("member=yes")

    def test_empty_graph6_input_exits_3(self, run):
        code, _, err = run(["cc", "-"], stdin="\n")
        assert code == 3 and "no graphs" in err

    def test_graph_on_the_header_line_is_read(self, run):
        code, out, _ = run(["cc", "-"], stdin=">>graph6<<Cl\nCl\n")
        assert code == 0 and out == "cc=4 witness=[[0], [1], [2], [3]]\n" * 2

    def test_malformed_graph6_exits_3(self, run):
        code, _, err = run(["cc", "-"], stdin="EhE\n")
        assert code == 3 and "truncated" in err

    def test_non_utf8_graph6_file_exits_3(self, run, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"Cl\n\xff\n")
        code, _, err = run(["cc", str(path)])
        assert code == 3 and err.startswith("error: ") and "utf-8" in err

    def test_non_utf8_edgelist_file_exits_3(self, run, tmp_path):
        path = tmp_path / "bad.el"
        path.write_bytes(b"3\n0 1\n\xff 2\n")
        code, _, err = run(["family-f", str(path)])
        assert code == 3 and err.startswith("error: ") and "utf-8" in err

    def test_non_utf8_standard_input_exits_3_under_the_c_locale(self):
        # the C locale reads standard input with surrogateescape, so a bad byte would reach the
        # graph6 parser as the code point 0xDCFF; the CLI decodes it strictly, as it does a file
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
        env.update(LC_ALL="C", PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run([sys.executable, "-m", "coalitions", "cc", "-"], input=b"Cl\n\xff\n",
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 3
        assert proc.stderr.startswith(b"error: 'utf-8' codec can't decode byte 0xff")

    def test_edgelist_above_the_graph6_order_exits_3(self, run, tmp_path):
        path = tmp_path / "huge.el"
        path.write_text("258048\n")
        code, out, err = run(["cc", str(path)])
        assert (code, out) == (3, "") and "258047" in err

    def test_missing_file_exits_3(self, run):
        code, _, err = run(["cc", "/nonexistent/thing.g6"])
        assert code == 3 and "error:" in err

    def test_usage_errors_exit_2(self, run):
        assert run([])[0] == 2
        assert run(["unknown-command"])[0] == 2
        assert run(["cc"])[0] == 2  # missing the input argument


class TestPlainStringStreams:
    """cli.main with sys.stdin and sys.stdout set to plain io.StringIO, as an embedder sets them.

    Such streams have no .buffer, .reconfigure or .fileno, unlike capsys's stdout and the
    interpreter's own streams, so the run fixture cannot see a break on this path.
    """

    @staticmethod
    def library_answer(cmd, g):
        if cmd == "cc":
            cc, witness = cc_number(g)
            return {"cc": cc, "witness": None if witness is None else [sorted(p) for p in witness]}
        member, trace = in_family_f(g)
        steps = [list(step) for step in trace.steps]
        return {"member": member, "terminal": trace.terminal, "steps": steps}

    @pytest.mark.parametrize("cmd", ["cc", "family-f"])
    def test_json_lines_match_the_library(self, cmd, monkeypatch):
        # C6, P3, K4 and the disconnected 2K2
        graphs = [generate("cycle", [6]), generate("path", [3]), generate("complete", [4]),
                  Graph(4, [(0, 1), (2, 3)])]
        text = "".join(emit_graph6(g) + "\n" for g in graphs)
        out = io.StringIO()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        monkeypatch.setattr("sys.stdout", out)
        assert cli.main([cmd, "--json", "-"]) == 0
        printed = [json.loads(line) for line in out.getvalue().splitlines()]
        assert printed == [self.library_answer(cmd, g) for g in graphs]


class TestClosedStdout:
    def test_reader_closing_the_pipe_exits_0_quietly(self, tmp_path):
        # `coalitions family-f many.g6 | head -1`: far more output than the pipe buffers
        path = tmp_path / "many.g6"
        path.write_text("Cl\n" * 5000)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "coalitions", "family-f", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert first.startswith(b"member=no ")
        assert err == b""


class TestVerifyCommand:
    def test_runs_and_writes_report(self, run, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run([
            "verify", "--n-max", "3", "--theorems", "t1,t10", "--out", str(out_path),
        ])
        assert code == 0
        assert out.startswith("corpus: labeled graphs n <= 3\n")
        data = json.loads(out_path.read_text())
        assert [t["id"] for t in data["theorems"]] == ["t1", "t10"]
        assert all(not t["counterexamples"] for t in data["theorems"])

    def test_status_exit_ignores_report_only_divergence(self, run):
        code, _, _ = run(["verify", "--n-max", "4", "--theorems", "t6", "--status-exit"])
        assert code == 0

    def test_corpus_file(self, run, tmp_path):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("Cl\nEhEG\n")
        code, out, _ = run(["verify", "--corpus", str(corpus), "--theorems", "t5"])
        assert code == 0 and "t5" in out

    def test_unknown_theorem_exits_3(self, run):
        code, _, err = run(["verify", "--theorems", "t99", "--n-max", "3"])
        assert code == 3 and "unknown theorem id" in err
        # an empty list names no theorem; only a missing flag means all ten
        code, out, err = run(["verify", "--theorems", "", "--n-max", "3"])
        assert code == 3 and out == "" and "unknown theorem id ''" in err

    def test_connected_only_label(self, run):
        code, out, _ = run(["verify", "--n-max", "3", "--connected-only", "--theorems", "t10"])
        assert code == 0 and "connected only" in out

    def test_empty_corpus_file_exits_3(self, run, tmp_path):
        corpus = tmp_path / "empty.g6"
        corpus.write_text("")
        code, out, err = run(["verify", "--corpus", str(corpus), "--status-exit"])
        assert (code, out) == (3, "") and "input contains no graphs" in err

    @pytest.mark.parametrize("n_max", ["0", "-1"])
    def test_empty_built_in_corpus_exits_3(self, run, n_max):
        code, out, err = run(["verify", "--n-max", n_max])
        assert (code, out) == (3, "") and "input contains no graphs" in err

    def test_order_0_graph6_line_exits_0(self, run):
        # "?" is the order-0 graph: no theorem applies, and nothing refuses it
        code, out, err = run(["verify", "--corpus", "-"], stdin="?\n")
        assert (code, err) == (0, "") and out.startswith("corpus: graph6 file -\n")

    def test_order_above_the_enumeration_guard_exits_4_at_once(self, run):
        code, out, err = run(["verify", "--n-max", "8"])
        assert (code, out, err) == (4, "", "error: labeled enumeration supports 1 <= n <= 7, got 8\n")
