"""The four seeded workloads.

Each workload builds its inputs from the seed in `setup`, runs one round of
operations over them in `run_round`, and checks a round's outputs in
`check`.  Kernel calls go through module attributes (`oracle.cc_number`,
not a name bound at import), so the tracer's wrappers see them.

A round returns (ops, samples, outputs): the operations it completed, the
per-operation seconds it could observe, and what the program returned.
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

from coalitions import cli, domination, family, graphs, matrices, oracle, verify
from coalitions.graphs import Graph

import replay

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


# Runs `python -m coalitions ARGS` and then writes the child's own status to
# stderr.  VmHWM there is the peak RSS since exec; ru_maxrss would also carry
# the parent's RSS at fork time.
CHILD_MAIN = """
import runpy, sys
try:
    runpy.run_module("coalitions", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        sys.stderr.write(fh.read())
"""


def vm_hwm_mb(status_text):
    """Peak resident set size in MB from a /proc/<pid>/status text."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise ValueError("no VmHWM line in process status")


def own_peak_mb():
    with open("/proc/self/status", encoding="ascii") as fh:
        return vm_hwm_mb(fh.read())


def sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def edges_digest(items):
    """Digest of (n, sorted edges) pairs, the inputs as the program receives them."""
    return sha([[n, sorted(map(list, edges))] for n, edges in items])


class Workload:
    """Defaults: inputs are a list of graphs, outputs digest as JSON, and the
    workload runs in this process."""

    peak_rss_mb = staticmethod(own_peak_mb)

    def graph_count(self, inputs):
        return len(inputs)

    def digest(self, outputs):
        return sha(outputs)


class Corpus6(Workload):
    """run_theorem_suite, all ten checks, over every labeled graph with n <= 6."""

    name = "corpus6"
    # checked counts of the full labeled corpus n <= 6, invariant under relabeling
    CHECKED = {"t1": 33867, "t2": 21872, "t3": 1422, "t4": 13482, "t5": 21872,
               "t6": 21872, "t7": 493, "t8": 3132, "t9": 6391, "t10": 25010}
    T6_DIVERGENCES = 13640

    def setup(self, seed):
        """A seeded vertex permutation per order, then a seeded traversal order."""
        rng = random.Random(seed)
        out = []
        for n in range(1, 7):
            perm = list(range(n))
            rng.shuffle(perm)
            for g in graphs.enumerate_labeled_graphs(n):
                nbr = [0] * n
                for v, mask in enumerate(g.nbr_masks):
                    image = 0
                    while mask:
                        low = mask & -mask
                        image |= 1 << perm[low.bit_length() - 1]
                        mask ^= low
                    nbr[perm[v]] = image
                out.append(Graph.from_neighbor_masks(n, nbr))
        rng.shuffle(out)
        return out

    def input_digest(self, inputs):
        return sha([[g.n, list(g.nbr_masks)] for g in inputs])

    def run_round(self, inputs, in_process=False):
        stamps = []

        def feed():
            clock = time.perf_counter
            for g in inputs:
                stamps.append(clock())
                yield g
            stamps.append(clock())

        report = verify.run_theorem_suite(feed(), corpus_label="bench corpus6")
        samples = [b - a for a, b in zip(stamps, stamps[1:])]
        rows = [{k: v for k, v in t.items() if k != "millis"} for t in report.theorems]
        return len(inputs), samples, rows

    def check(self, inputs, rows):
        """Failed graphs: asserted counterexamples plus t6 strict violations."""
        bad = set()
        ok = {t["id"]: t["checked"] for t in rows} == self.CHECKED
        for t in rows:
            ok = ok and t["passed"] + len(t["counterexamples"]) == t["checked"]
            for ce in t["counterexamples"]:
                if not t["report_only"] or ce["detail"].get("strict_violation"):
                    bad.add(ce["graph6"])
            if t["id"] == "t6":
                ok = ok and len(t["counterexamples"]) == self.T6_DIVERGENCES
        return len(bad), ok


class Exact12(Workload):
    """Deep single searches: cc_number on sparse n = 12, d_c on dense n = 12."""

    name = "exact12"
    TREES = 3
    CORONAS = 2
    DENSE = 1
    DENSE_P = 0.9

    def setup(self, seed):
        rng = random.Random(seed)
        items = [
            ("P12", 12, replay.path_edges(12), "cc", 2),
            ("C12", 12, replay.cycle_edges(12), "cc", 3),
            ("P6oK1", 12, replay.corona_edges(6, replay.path_edges(6)), "cc", 2),
        ]
        trees = 0
        while trees < self.TREES:
            edges = replay.prufer_tree_edges([rng.randrange(12) for _ in range(10)], 12)
            if not replay.has_full_vertex(replay.adjacency(12, edges)):
                items.append((f"tree{trees}", 12, edges, "cc", 2))
                trees += 1
        for k in range(self.CORONAS):
            h = replay.random_connected(rng, 6, 0.5)
            items.append((f"corona{k}", 12, replay.corona_edges(6, h), "cc", 2))
        for k in range(self.DENSE):
            edges = replay.random_connected(rng, 12, self.DENSE_P, no_full=True)
            items.append((f"dense{k}", 12, edges, "dc", None))
        return [(name, n, edges, kind, expect, Graph(n, edges))
                for name, n, edges, kind, expect in items]

    def input_digest(self, inputs):
        return edges_digest([(n, edges) for _, n, edges, *_ in inputs])

    def run_round(self, inputs, in_process=False):
        samples = []
        outputs = []
        clock = time.perf_counter
        for _, _, _, kind, _, g in inputs:
            start = clock()
            try:
                if kind == "cc":
                    value, parts = oracle.cc_number(g)
                else:
                    value, parts = domination.connected_domatic_number(g)
                out = [value, None if parts is None else [sorted(p) for p in parts]]
            except Exception as exc:  # a raising kernel is a failed operation
                out = ["error", repr(exc)]
            samples.append(clock() - start)
            outputs.append(out)
        return len(inputs), samples, outputs

    def check(self, inputs, outputs):
        failed = 0
        for (_, n, edges, kind, expect, _), (value, parts) in zip(inputs, outputs):
            sg = replay.SetGraph(n, edges)
            if value == "error":
                ok = False
            elif kind == "cc":
                ok = value == expect and sg.cc_witness_ok(value, parts)
            else:
                ok = sg.domatic_witness_ok(value, parts)
            failed += not ok
        return failed, True


class DeciderLarge(Workload):
    """Both polynomial deciders, both CC = n-1 variants, on n = 300."""

    name = "decider_large"
    N = 300
    DENSITIES = (0.02, 0.02, 0.02, 0.02, 0.02, 0.5, 0.97)
    CHECKS = ("check_n", "strict", "paper")

    def setup(self, seed):
        rng = random.Random(seed)
        items = [("C300", replay.cycle_edges(self.N))]
        for p in self.DENSITIES:
            items.append((f"gnp{p}", replay.random_connected(rng, self.N, p, no_full=True)))
        return [(name, edges, Graph(self.N, edges)) for name, edges in items]

    def input_digest(self, inputs):
        return edges_digest([(self.N, edges) for _, edges, _ in inputs])

    def run_round(self, inputs, in_process=False):
        samples = []
        outputs = []
        clock = time.perf_counter
        for _, _, g in inputs:
            for check in self.CHECKS:
                start = clock()
                try:
                    if check == "check_n":
                        d = matrices.check_cc_equals_n(g)
                    else:
                        d = matrices.check_cc_equals_n_minus_1(g, check)
                except Exception as exc:  # a raising kernel is a failed operation
                    d = exc
                samples.append(clock() - start)
                outputs.append(d)
        return len(outputs), samples, outputs

    def digest(self, outputs):
        return sha([repr(d) if isinstance(d, Exception) else d.as_dict() for d in outputs])

    def check(self, inputs, outputs):
        failed = 0
        k = len(self.CHECKS)
        for i, (_, edges, _) in enumerate(inputs):
            sg = replay.SetGraph(self.N, edges)
            n_dec, strict, paper = outputs[i * k:(i + 1) * k]
            if any(isinstance(d, Exception) for d in (n_dec, strict, paper)):
                failed += sum(isinstance(d, Exception) for d in (n_dec, strict, paper))
                continue
            failed += not sg.check_n_ok(n_dec)
            strict_ok = not (n_dec.answer and strict.answer)
            if strict.answer:
                strict_ok = strict_ok and paper.answer and sg.check_n1_yes_ok(strict.witness, True)
            failed += not strict_ok
            failed += bool(paper.answer) and not sg.check_n1_yes_ok(paper.witness, False)
        return failed, True


class CliStream(Workload):
    """`python -m coalitions cc --json` and `family-f --json` over a graph6 stream."""

    name = "cli_stream"
    LINES = 20000
    COMMANDS = ("cc", "family-f")

    def __init__(self):
        self.child_peak_mb = 0.0

    def peak_rss_mb(self):
        """The largest peak RSS of any CLI child run so far."""
        return self.child_peak_mb

    def setup(self, seed):
        rng = random.Random(seed)
        items = []
        for _ in range(self.LINES):
            n = rng.randint(5, 8)
            items.append((n, replay.random_edges(rng, n, rng.random())))
        text = "".join(replay.graph6(n, edges) + "\n" for n, edges in items)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"cli_stream-{seed}.g6")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        return {"items": items, "text": text, "path": path}

    def input_digest(self, inputs):
        return hashlib.sha256(inputs["text"].encode()).hexdigest()[:16]

    def graph_count(self, inputs):
        return len(inputs["items"])

    def run_round(self, inputs, in_process=False):
        start = time.perf_counter()
        outputs = []
        for cmd in self.COMMANDS:
            if in_process:
                outputs.append(self._in_process(cmd, inputs["text"]))
            else:
                outputs.append(self._subprocess(cmd, inputs["path"]))
        ops = len(self.COMMANDS) * len(inputs["items"])
        return ops, [(time.perf_counter() - start) / ops], outputs

    def _subprocess(self, cmd, path):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", CHILD_MAIN, cmd, "--json", path],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=170)
        self.child_peak_mb = max(self.child_peak_mb, vm_hwm_mb(proc.stderr))
        return proc.returncode, proc.stdout

    def _in_process(self, cmd, text):
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
        try:
            code = cli.main([cmd, "--json", "-"])
            return code, sys.stdout.getvalue()
        finally:
            sys.stdin, sys.stdout = saved

    def check(self, inputs, outputs):
        """Exit code 0, one line per graph, each line the library's answer for it."""
        failed = 0
        items = inputs["items"]
        for cmd, (code, out) in zip(self.COMMANDS, outputs):
            lines = out.splitlines()
            if code != 0 or len(lines) != len(items):
                failed += len(items)
                continue
            for (n, edges), line in zip(items, lines):
                try:
                    printed = json.loads(line)
                except json.JSONDecodeError:
                    printed = None
                failed += printed != library_answer(cmd, Graph(n, edges))
        return failed, True


def library_answer(cmd, g):
    """The value the CLI should print, computed through the library directly."""
    if cmd == "cc":
        cc, witness = oracle.cc_number(g)
        return {"cc": cc, "witness": None if witness is None else [sorted(p) for p in witness]}
    member, trace = family.in_family_f(g)
    return {"member": member, "terminal": trace.terminal,
            "steps": [[v, r] for v, r in trace.steps]}


WORKLOADS = {w.name: w for w in (Corpus6(), Exact12(), DeciderLarge(), CliStream())}
