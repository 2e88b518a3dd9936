#!/usr/bin/env python3
"""Steadiness check of the PathIx benchmark.

    python3 perfbench/steady.py [--workloads read_mostly] [--runs 10]
                                [--first-seed 1] [--seconds N]

Run it from the root of the repository. It makes two sets of runs of the
current build; each set runs every chosen workload once per seed
(--first-seed .. --first-seed + --runs - 1), and the sets alternate run by
run, so host drift falls on both alike. For each workload and end-to-end
metric it prints each set's median, first and third quartile
(statistics.quantiles(values, n=4)) and spread, the distance between the
quartiles as a share of the median, then whether the sets agree:

  * both spreads are within the metric's bound, and
  * set 1's median is not worse than set 0's by more than the bound.

It exits 1 when any check fails, a run fails, or the sets disagree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result.get("correct"):
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    # values[set][workload][metric] -> list over seeds
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(SETS)]
    ok = True
    for i, seed in enumerate(seeds):
        for w in workloads:
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                got = run_once(w, seed, seconds)
                if got is None:
                    print(f"FAILED run: set {s} {w} seed {seed}")
                    ok = False
                    continue
                for m in metrics:
                    values[s][w][m["name"]].append(got[m["name"]])
                print(f"set {s} {w} seed {seed}: " + " ".join(
                    f"{m['name']}={got[m['name']]:.6g}" for m in metrics),
                    flush=True)

    print()
    print(f"{'workload':<12} {'metric':<13} {'bound':>5}  " +
          "  ".join(f"{'median' + str(s):>12} {'q1-q3':>23} {'spread':>7}"
                    for s in range(SETS)) + "  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [values[s][w][name] for s in range(SETS)]
            if min(len(v) for v in sets) < 2:
                print(f"{w:<12} {name:<13} {bound:>5}  too few runs")
                ok = False
                continue
            stats = [summarize(v) for v in sets]
            verdict = "ok"
            if any(spread > bound for *_, spread in stats):
                verdict = "spread over bound"
            first, second = stats[0][0], stats[1][0]
            worse = ((second - first) if m["better"] == "lower"
                     else (first - second)) / first if first else 0
            if worse > bound:
                verdict = "medians disagree"
            if verdict != "ok":
                ok = False
            print(f"{w:<12} {name:<13} {bound:>5}  " + "  ".join(
                f"{md:>12.6g} {q1:>11.5g}-{q3:<11.5g} {sp:>7.3f}"
                for md, q1, q3, sp in stats) + f"  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
