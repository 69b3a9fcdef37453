#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same build agree?

Runs one workload `--runs` times per set, alternating set A and set B run
by run (each run with its own seed), and prints per end-to-end metric each
set's median, quartiles and spread (quartile distance over median), the
ratio of the set medians, and each set's median run-queue wait. The
verdict is STEADY when, for every end-to-end metric, the two set medians
differ by no more than the metric's bound from BENCHMARK.json in either
direction (both sets run the same build, so a gap either way is a
disagreement), and each set's spread is within the bound. The spread of
`setup_s` is printed but not held to its bound, as in the acceptance rule
this mirrors: a run sets up only a few times, so its `setup_s` follows
the host's speed during the run more than a metric taken over hundreds of
ops does.

Run from the repository root:

    python3 benchmark/steady.py --workload task_dense --runs 10

`--bin PATH` runs a prebuilt benchmark binary instead of `cargo run`.
"""

import argparse
import json
import statistics
import subprocess
import sys

CARGO = ["cargo", "run", "--release", "--offline", "--quiet",
         "--manifest-path", "benchmark/Cargo.toml", "--"]


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"run failed ({out.returncode}): {' '.join(args)}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"incorrect run: {' '.join(args)}\n{out.stdout}\n{out.stderr}")
    runq = next((float(l.split()[3]) for l in lines
                 if l.startswith("# host.runq_wait_ms")), 0.0)
    return {k: v["value"] for k, v in result["metrics"].items()}, runq


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / statistics.median(values)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float)
    p.add_argument("--seed", type=int, default=1, help="first seed of set A")
    p.add_argument("--bin", help="prebuilt benchmark binary")
    a = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    cmd = [a.bin] if a.bin else CARGO

    sets = {"A": [], "B": []}
    runq = {"A": [], "B": []}
    for i in range(a.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for s in order:
            seed = a.seed + i + (0 if s == "A" else 1000)
            metrics, wait = run_once(cmd, a.workload, seed, seconds)
            sets[s].append(metrics)
            runq[s].append(wait)
            print(f"run {i} set {s} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)

    ok = True
    print(f"\n{a.workload}: {a.runs} runs per set, {seconds} s each")
    print(f"{'metric':<12} {'set':<3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}")
    for name, m in bounds.items():
        med = {}
        for s in ("A", "B"):
            values = [r[name] for r in sets[s]]
            q1, q2, q3, sp = spread(values)
            med[s] = statistics.median(values)
            flag = ""
            if name == "setup_s":
                flag = " (spread not a criterion)" if sp > m["bound"] else ""
            elif sp > m["bound"]:
                flag, ok = " SPREAD", False
            elif sp > m["bound"] / 3:
                flag = " (over a third of the bound)"
            print(f"{name:<12} {s:<3} {med[s]:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                  f" {sp:>8.2%} {m['bound']:>6}{flag}")
        ratio = med["B"] / med["A"] if med["A"] else float("nan")
        verdict = "ok"
        if not abs(ratio - 1) <= m["bound"]:
            verdict, ok = "SETS DISAGREE", False
        print(f"{name:<12} B/A {ratio:>12.4f}  {verdict}")
    for s in ("A", "B"):
        print(f"host.runq_wait_ms set {s}: median {statistics.median(runq[s]):.3f}")
    print("STEADY" if ok else "NOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
