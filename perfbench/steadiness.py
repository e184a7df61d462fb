#!/usr/bin/env python3
"""Measure the benchmark's steadiness and record a baseline.

    python3 perfbench/steadiness.py [--out perfbench/baseline.json]

Runs perfbench/run.py (--trace 0) once per seed, seeds 1-10, on every
workload of BENCHMARK.json; then runs the same ten seeds again, as a
second set on the same code.  For every end-to-end metric it reports,
per set, the median of the runs and their spread: the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a
share of the median; and the change of the second set's median from
the first's.  Last it makes one traced run per workload at seed 23 and
records its per-layer metrics.  --out writes everything as JSON,
together with the host facts the figures depend on.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEEDS = list(range(1, 11))
TRACE_SEED = 23


def run(workload, seed, seconds, trace):
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["exit"] = proc.returncode
    result["host_s"] = round(time.time() - t0, 1)
    return result


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else float("nan")


def one_set(spec, label):
    """Ten runs per workload; {workload: entry}."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for w in spec["workloads"]:
        workload = w["name"]
        runs = []
        for seed in SEEDS:
            r = run(workload, seed, spec["run_seconds"], 0)
            print("%s: %s seed %d: exit %d, correct %s, %.0f s"
                  % (label, workload, seed, r["exit"], r["correct"], r["host_s"]), flush=True)
            runs.append(r)
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, sp = spread(values)
            metrics[name] = {"median": med, "spread": round(sp, 5), "bound": bound,
                             "values": values}
            print("  %-20s median %-14.6g spread %.4f  (bound %.2f)" % (name, med, sp, bound),
                  flush=True)
        out[workload] = {"all_correct": all(r["correct"] and r["exit"] == 0 for r in runs),
                         "host_s_per_run": [r["host_s"] for r in runs], "end_to_end": metrics}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out")
    a = ap.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    record = {
        "host": {"cores": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "gc": "OCaml runtime defaults (no Gc.set, no OCAMLRUNPARAM)",
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "workloads": one_set(spec, "set 1"),
    }
    second = one_set(spec, "set 2")
    for workload, entry in second.items():
        first = record["workloads"][workload]["end_to_end"]
        for name, m in entry["end_to_end"].items():
            base = first[name]["median"]
            m["change_vs_set_1"] = round((m["median"] - base) / base, 5) if base else 0.0
            print("%s %-20s set 2 vs set 1: %+.4f" % (workload, name, m["change_vs_set_1"]))
    record["second_set"] = {"note": "the same ten seeds run again right after the first set, "
                                    "same code", "workloads": second}
    for w in spec["workloads"]:
        r = run(w["name"], TRACE_SEED, spec["run_seconds"], 1)
        record["workloads"][w["name"]]["traced"] = {
            "seed": TRACE_SEED, "correct": r["correct"] and r["exit"] == 0,
            "per_layer": {k: v["value"] for k, v in r["metrics"].items()}}
    if a.out:
        with open(a.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
