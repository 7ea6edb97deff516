#!/usr/bin/env python3
"""Benchmark entry point for the split-level I/O simulator.

Run from the repository root:

  python3 perfbench/run.py --workload randread-ssd --seed 3 --seconds 10 --trace 0

builds perfbench/perfbench.cc and the simulator library from src/ into
.bench_build/perfbench (Release), runs one measured run of the workload and
prints, as its last line, one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1 (spans go to
.bench_build/perfbench/spans/).

A run is correct when every round reproduced the same simulated output, the
tiny default-seed reference round matches its pinned digest, the full-size
digest matches the pinned one for seeds that have one, the traced (and, for
hdfs-sharded, the thread-pool) round reproduced the untraced digest, and no
operation failed.

Other modes:
  --selftest       tiny sizes of every workload: pinned digests, traced and
                   pool identity, every metric name and unit, and a negative
                   control (a non-default seed must not match the pin).
  --pin SEEDS      recompute perfbench/pinned_digests.json (tiny reference
                   plus full-size digests for the comma-separated seeds).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
PINNED = os.path.join(HERE, "pinned_digests.json")
DEFAULT_SEED = 1
BINARY_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "core", "storage_stack.h")):
        fail("simulator sources (src/) not found next to perfbench/")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            env=env).returncode
        if rc != 0:
            fail("build step failed: " + " ".join(cmd))


def run_binary(args):
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out: " + " ".join(args), 1)
    if proc.returncode != 0:
        fail("benchmark binary exited with %d: %s" % (proc.returncode, " ".join(args)), 1)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return json.loads(lines[-1])


def load_pins():
    with open(PINNED) as f:
        return json.load(f)


def check(result, workload, seed, pins, size="full"):
    """Returns the list of failed checks (empty when correct)."""
    problems = []
    if not result["consistent"]:
        problems.append("rounds, traced round or pool round disagree")
    if result["reference_digest"] != pins["tiny"][workload]:
        problems.append("reference digest %s != pinned %s" %
                        (result["reference_digest"], pins["tiny"][workload]))
    if size == "full":
        pinned = pins["full"][workload].get(str(seed))
        if pinned is not None and result["digest"] != pinned:
            problems.append("digest %s != pinned %s for seed %d" %
                            (result["digest"], pinned, seed))
    if result["failed"] != 0:
        problems.append("%d operations failed" % result["failed"])
    return problems


def measure(opts):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if opts.workload not in names:
        fail("unknown workload %r (expected one of %s)" % (opts.workload, names))
    build()
    pins = load_pins()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.trace:
        spans = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(
            spans, "%s-seed%d.tsv" % (opts.workload, opts.seed))]
    result = run_binary(args)
    problems = check(result, opts.workload, opts.seed, pins)
    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append("metric %s missing or unit differs" % m["name"])
            continue
        metrics[m["name"]] = got
    for p in problems:
        print("perfbench: CHECK FAILED: " + p, file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


def selftest():
    spec = load_spec()
    build()
    pins = load_pins()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    for w in [w["name"] for w in spec["workloads"]]:
        base = ["--workload", w, "--seconds", "0", "--size", "tiny"]
        res = run_binary(base + ["--seed", str(DEFAULT_SEED), "--trace", "1"])
        found = check(res, w, DEFAULT_SEED, pins, size="tiny")
        if res["digest"] != pins["tiny"][w]:
            found.append("tiny digest %s != pinned %s" %
                         (res["digest"], pins["tiny"][w]))
        for name, unit in units.items():
            got = res["metrics"].get(name)
            if got is None or got["unit"] != unit:
                found.append("metric %s missing or unit differs" % name)
        # Negative control: another seed is another simulation.
        other = run_binary(base + ["--seed", str(DEFAULT_SEED + 1),
                                   "--trace", "0"])
        if other["digest"] == pins["tiny"][w]:
            found.append("seed %d matched the pinned digest of seed %d" %
                         (DEFAULT_SEED + 1, DEFAULT_SEED))
        print("%-14s digest=%s traced+pool identity=%s negative-control=%s "
              "-> %s" % (w, res["digest"], res["consistent"], other["digest"],
                         "ok" if not found else "FAIL"))
        problems += ["%s: %s" % (w, p) for p in found]
    print("\nmetrics:")
    for name, unit in units.items():
        print("  %-32s %s" % (name, unit))
    for p in problems:
        print("FAIL: " + p)
    print("selftest %s" % ("passed" if not problems else "FAILED"))
    sys.exit(1 if problems else 0)


def pin(seeds):
    spec = load_spec()
    build()
    pins = {"tiny": {}, "full": {}}
    for w in [w["name"] for w in spec["workloads"]]:
        pins["full"][w] = {}
        for seed in seeds:
            res = run_binary(["--workload", w, "--seed", str(seed),
                              "--rounds", "1", "--trace", "0"])
            if not res["consistent"]:
                fail("%s seed %d is not deterministic" % (w, seed), 1)
            pins["full"][w][str(seed)] = res["digest"]
            pins["tiny"][w] = res["reference_digest"]
            print("%s seed %d: %s" % (w, seed, res["digest"]), file=sys.stderr)
    with open(PINNED, "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--pin")
    opts = ap.parse_args()
    if opts.selftest:
        selftest()
    elif opts.pin:
        pin([int(s) for s in opts.pin.split(",")])
    elif opts.workload:
        measure(opts)
    else:
        ap.error("--workload, --selftest or --pin is required")


if __name__ == "__main__":
    main()
