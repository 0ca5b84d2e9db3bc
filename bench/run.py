"""Benchmark of the coalitions package: seeded workloads, end to end and per layer.

    python3 bench/run.py --workload corpus6 --seed 1 --seconds 12 --trace 0

Run from a checkout that holds `src/coalitions`; the package is imported
from there, nothing is installed.  Workloads (see workloads.py):

  corpus6        run_theorem_suite, all ten checks, every labeled graph n <= 6
  exact12        cc_number on sparse n = 12, connected_domatic_number on dense n = 12
  decider_large  check_cc_equals_n and both check_cc_equals_n_minus_1 variants, n = 300
  cli_stream     `python -m coalitions cc --json` and `family-f --json` on 20,000 lines

`--trace 0` repeats whole rounds of the workload until the next round would
end after `--seconds`, and reports the end-to-end metrics.  `--trace 1` runs
one untraced round and one traced round over the same inputs and reports
per-layer self times and counts from the traced round (spans go to
`.bench_out/`).  Either way the outputs are checked, and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from array import array

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9

END_TO_END = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import coalitions; print(time.perf_counter() - t)")


def median_child_seconds(argv, env=None, parse_stdout=False):
    """Median over SETUP_REPEATS child runs: wall time, or the float the child prints."""
    values = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        wall = time.perf_counter() - start
        values.append(float(proc.stdout) if parse_stdout else wall)
    return statistics.median(values)


def set_up(wl, seed):
    """Median import time plus median input build time, each over SETUP_REPEATS."""
    import_s = median_child_seconds([sys.executable, "-c", IMPORT_PROBE, SRC],
                                    parse_stdout=True)
    build = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # free the previous build before timing the next
        start = time.perf_counter()
        inputs = wl.setup(seed)
        build.append(time.perf_counter() - start)
    return inputs, import_s + statistics.median(build)


def timed_round(wl, inputs, in_process=False):
    """One round: (wall, ops, samples, output digest), and the outputs themselves."""
    start = time.perf_counter()
    ops, samples, out = wl.run_round(inputs, in_process)
    wall = time.perf_counter() - start
    return (wall, ops, array("d", samples), wl.digest(out)), out


def unreproduced(rounds):
    """Operations of later rounds whose outputs differ from the first round's."""
    return sum(ops for _, ops, _, digest in rounds[1:] if digest != rounds[0][3])


def measure(wl, inputs, seconds):
    """Whole rounds until the next one, at the mean round time, would overrun.

    The first round's outputs are checked in full and dropped before the next
    round starts; later rounds must reproduce them exactly.  Peak memory is
    read before the check, so it covers set-up and the program's work but not
    the checker's.  Returns (rounds, failed, ok, peak_rss_mb).
    """
    first, out = timed_round(wl, inputs)
    peak = wl.peak_rss_mb()
    failed, ok = wl.check(inputs, out)
    del out
    rounds = [first]
    while sum(r[0] for r in rounds) * (len(rounds) + 1) / len(rounds) <= seconds:
        rounds.append(timed_round(wl, inputs)[0])
    return rounds, failed + unreproduced(rounds), ok, peak


def quantile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def end_to_end(wl, inputs, setup_s, seconds):
    rounds, failed, ok, peak = measure(wl, inputs, seconds)
    samples = sorted(s for r in rounds for s in r[2])
    wall = sum(r[0] for r in rounds)
    ops = sum(r[1] for r in rounds)
    metrics = {
        "ops_per_s": ops / wall,
        "op_s.p50": statistics.median(samples),
        "setup_s": setup_s,
        "peak_rss_mb": peak,
    }
    print(f"output_digest {rounds[0][3]}")
    print(f"rounds {len(rounds)} ops {ops} samples {len(samples)} wall_s {wall:.3f}")
    for name, unit in END_TO_END.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    if len(samples) >= 1000:
        print(f"op_s.p99 {quantile(samples, 0.99):.6g} s ({len(samples)} samples)")
    print(f"failed_frac {failed / ops:.6g} ({failed}/{ops})")
    return ops, failed, ok, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def per_layer(wl, inputs, seed, coalitions):
    tracer = spans.Tracer()
    tracer.install(coalitions)
    idx = tracer.open("bench.setup")
    try:
        wl.setup(seed)
    finally:
        tracer.close(idx)
        tracer.uninstall()

    plain, _ = timed_round(wl, inputs, in_process=True)
    tracer.install(coalitions)
    root = tracer.open(spans.ROOT_NAME)
    try:
        ops, samples, out = wl.run_round(inputs, True)
    finally:
        tracer.close(root)
        tracer.uninstall()
    traced_wall = tracer.ends[root] - tracer.starts[root]
    digest = wl.digest(out)
    failed, ok = wl.check(inputs, out)
    failed += unreproduced([(traced_wall, ops, samples, digest), plain])
    attempted = ops + plain[1]

    env = dict(os.environ, PYTHONPATH=SRC)
    startup = median_child_seconds([sys.executable, "-m", "coalitions", "gen", "path", "1"], env)
    agg = tracer.self_times()
    metrics = layer_metrics(tracer, agg, wl.graph_count(inputs))
    metrics["cli.startup_s"] = (startup, "s")
    metrics["trace.overhead_frac"] = (traced_wall / plain[0] - 1, "ratio")

    print(f"output_digest {digest}")
    print(f"traced wall {traced_wall:.3f} s, untraced {plain[0]:.3f} s, {len(tracer.names)} spans")
    print(f"{'layer':<48}{'calls':>9}{'self_s':>11}{'share':>8}")
    rows = sorted(((n, c, s) for n, (c, s) in agg.items() if n != "bench.setup"),
                  key=lambda r: -r[2])
    accounted = 0.0
    for name, calls, self_s in rows:
        if name == "graphs.enumerate_labeled_graphs":
            continue  # set-up, outside the traced round
        accounted += self_s
        print(f"{name:<48}{calls:>9}{self_s:>11.4f}{self_s / traced_wall:>8.1%}")
    print(f"self times sum to {accounted:.4f} s of {traced_wall:.4f} s traced wall")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    tracer.write(os.path.join(ROOT, ".bench_out", f"trace-{wl.name}-{seed}.tsv.gz"))
    return attempted, failed, ok, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def layer_metrics(tracer, agg, graphs):
    """Per-layer metrics of the traced round, in the names BENCHMARK.json lists."""

    def calls(name):
        return agg[name][0] if name in agg else 0

    def self_s(name):
        return agg[name][1] if name in agg else 0.0

    def frac(values):
        return sum(values) / len(values) if values else 0.0

    out = {}
    for name in ("domination.connected_domatic_number", "oracle.cc_partition_search",
                 "oracle.cc_number", "domination.cds_table", "domination.gamma_c",
                 "matrices.check_cc_equals_n_minus_1.strict",
                 "matrices.check_cc_equals_n_minus_1.paper", "matrices.check_cc_equals_n",
                 "family.in_family_f", "graphs.parse_graph6", "graphs.emit_graph6"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.s"] = (self_s(name), "s")
    out["domination.cds_table.builds_per_graph"] = (calls("domination.cds_table") / graphs, "ratio")
    check_n = "matrices.check_cc_equals_n"
    top = {
        "check_n": tracer.top_level_answers(check_n),
        "strict": tracer.top_level_answers(f"{check_n}_minus_1.strict"),
        "paper": tracer.top_level_answers(f"{check_n}_minus_1.paper"),
    }
    decisions = sum(len(v) for v in top.values())
    out[f"{check_n}.calls_per_decision"] = (calls(check_n) / decisions if decisions else 0.0,
                                            "ratio")
    for key, answers in top.items():
        out[f"matrices.yes_frac.{key}"] = (frac(answers), "ratio")
    out["cli.main.s"] = (self_s("cli.main"), "s")
    out["graphs.enumerate_labeled_graphs.s"] = (self_s("graphs.enumerate_labeled_graphs"), "s")
    out["verify.run_theorem_suite.self_s"] = (self_s("verify.run_theorem_suite"), "s")
    out["bench.self_s"] = (self_s("bench"), "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coalitions", "__init__.py")):
        print(f"error: no package source at {SRC}/coalitions", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import coalitions
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs, setup_s = set_up(wl, args.seed)
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"input_digest {wl.input_digest(inputs)}")
    if args.trace:
        attempted, failed, ok, metrics = per_layer(wl, inputs, args.seed, coalitions)
    else:
        attempted, failed, ok, metrics = end_to_end(wl, inputs, setup_s, args.seconds)
    print(json.dumps({"correct": bool(ok and failed == 0), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
