"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 bench/spread.py --workload exact12 --seeds 1-10 [--trace 1] [--out FILE]

Spread is the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median; for each
end-to-end metric it is shown next to the bound from BENCHMARK.json.  Runs
are sequential, one child process at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, trace):
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the summary as one JSON line to this file")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    all_correct = True
    for seed in args.seeds:
        result = run_once(spec, args.workload, seed, args.trace)
        all_correct = all_correct and result["correct"] and result["failed"] == 0
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {shown}", flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "correct": all_correct,
               "metrics": {}}
    print(f"{'metric':<52}{'median':>13}{'spread':>9}{'bound':>7}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        shown = f"{bound:>7}" if bound is not None else ""
        print(f"{name:<52}{med:>13.6g}{spread:>9.2%}{shown}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(summary) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
