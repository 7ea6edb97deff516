#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the repository root:

  python3 perfbench/spread.py --runs 10 [--workloads fsync-mix,...]
                              [--seconds 10] [--out FILE]

runs perfbench/run.py --trace 0 N times per workload, with seeds 1..N, one
run at a time, and prints for each
metric its median, first and third quartile (statistics.quantiles, n=4), the
interquartile range and the max-min range as shares of the median, and the
metric's bound from BENCHMARK.json. A metric is "steady" when its
interquartile share is below a third of its bound. The widest metric of each
workload (largest interquartile share relative to its bound) is named, so a
too-noisy verdict can be traced to one metric. The exit status is 1 when any
metric's interquartile share exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit("run.py failed for %s seed %d" % (workload, seed))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    opts = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = ["spread over %d runs per workload, seeds 1..%d, %gs per run, "
              "nproc=%d" % (opts.runs, opts.runs, opts.seconds,
                            os.cpu_count() or 1)]
    noisy = False
    for workload in opts.workloads.split(","):
        values = {name: [] for name in bounds}
        all_correct = True
        for seed in range(1, opts.runs + 1):
            res = run_once(workload, seed, opts.seconds)
            all_correct = all_correct and res["correct"]
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print("%s seed %d: %s" % (
                workload, seed,
                " ".join("%s=%.6g" % (n, v[-1]) for n, v in values.items())),
                file=sys.stderr)
        report.append("")
        report.append("%s (all runs correct: %s)" % (workload, all_correct))
        report.append("  %-14s %12s %12s %12s %8s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "iqr%", "range%", "bound",
            "verdict"))
        widest, widest_load = None, -1.0
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(v) - min(v)) / med if med else 0.0
            bound = bounds[name]
            verdict = ("steady" if iqr < bound / 3 else
                       "within bound" if iqr <= bound else "TOO NOISY")
            if iqr > bound:
                noisy = True
            if iqr / bound > widest_load:
                widest, widest_load = name, iqr / bound
            report.append("  %-14s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %6.2f  "
                          "%s" % (name, med, q1, q3, 100 * iqr, 100 * rng,
                                  bound, verdict))
        report.append("  widest: %s (iqr at %.0f%% of its bound)" %
                      (widest, 100 * widest_load))
    text = "\n".join(report) + "\n"
    print(text)
    if opts.out:
        with open(opts.out, "w") as f:
            f.write(text)
    sys.exit(1 if noisy else 0)


if __name__ == "__main__":
    main()
