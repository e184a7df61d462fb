#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/bench.ml).

    python3 perfbench/run.py --workload overlay-large --seed 23 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 23 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout of the repository: the script builds
bench.exe from source with dune (into the checkout's _build/), runs it
and relays its output.  The last line of standard output is the JSON
result {correct, attempted, failed, metrics}; the exit code is 0 only
when every correctness check passed.  Traced runs (--trace 1) also write
their spans to .perfbench_out/ in the checkout.

--self-test runs every workload at n = 200 (and a short serve session)
twice, and asserts that every metric of BENCHMARK.json prints with its
unit and that every exact metric repeats bit-for-bit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["overlay-large", "overlay-lossy", "serve-churn"]
RUN_TIMEOUT_S = 170

# Metrics that depend only on the seed: a speed-only change leaves them
# identical, and two runs of one seed must print the same digits.
EXACT = {
    "wire_frames",
    "satisfaction_mean",
    "steady_satisfaction",
    "converge_vt",
    "latency_p50_vt",
    "latency_p99_vt",
    "stack.minor_words_per_frame",
    "transport.frames_per_message",
    "transport.useful_ratio",
    "transport.retransmissions",
    "transport.acks",
    "transport.dup_suppressed",
    "dedup.suppressed",
    "channel.dropped",
    "channel.reordered",
    "detector.patience_fired",
    "serve.mutations",
    "serve.queries",
    "serve.max_queue",
    "serve.minor_words_per_request",
}

# Printed (by name, with unit) but kept out of the JSON result: exact
# per seed, yet too spread across seeds for a median bound.
PRINTED_ONLY = {
    "overlay-large": {"converge_vt": "vt", "failed_frac": "ratio"},
    "overlay-lossy": {"converge_vt": "vt", "failed_frac": "ratio"},
    "serve-churn": {"converge_vt": "vt", "latency_p50_vt": "vt", "latency_p99_vt": "vt",
                    "failed_frac": "ratio"},
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found under %s: run from a checkout of the repository" % (need, ROOT))
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0:
        fail("build failed")
    return os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def run_bench(exe, workload, seed, seconds, trace, small=False):
    """Run one workload; returns (exit code, stdout lines)."""
    args = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if small:
        args.append("--small")
    try:
        proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    """The JSON result line, or None when the run printed none."""
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def printed_metrics(lines):
    """{name: (value text, unit)} from the human-readable metric lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("{"):
            out[parts[0]] = (parts[1], parts[2])
    return out


def self_test(exe):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        named = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            runs = []
            for _ in range(2):
                code, lines = run_bench(exe, workload, 23, 1, trace, small=True)
                result = result_of(lines)
                if code != 0 or result is None:
                    problems.append("%s trace=%d exited %d" % (workload, trace, code))
                    continue
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != named:
                    problems.append("%s trace=%d JSON metrics %s, expected %s"
                                    % (workload, trace, got, named))
                printed = printed_metrics(lines[:-1])
                wanted = dict(named)
                if trace == 0:
                    wanted.update(PRINTED_ONLY[workload])
                for name, unit in wanted.items():
                    if printed.get(name, ("", ""))[1] != unit:
                        problems.append("%s trace=%d: %s not printed with unit %s"
                                        % (workload, trace, name, unit))
                runs.append(printed)
            for name in sorted(EXACT) if len(runs) == 2 else []:
                a, b = runs[0].get(name), runs[1].get(name)
                if a is not None and a != b:
                    problems.append("%s trace=%d: exact metric %s differs: %s vs %s"
                                    % (workload, trace, name, a, b))
            print("self-test %-14s trace=%d: %d runs checked" % (workload, trace, len(runs)))
    for p in problems:
        print("SELF-TEST FAILED: " + p)
    print("self-test: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")
    exe = build()
    if a.self_test:
        return self_test(exe)
    if a.workload != "all":
        code, lines = run_bench(exe, a.workload, a.seed, a.seconds, a.trace)
        print("\n".join(lines))
        return code
    # every workload in turn, with one combined result line
    worst, attempted, failed, metrics = 0, 0, 0, {}
    for workload in WORKLOADS:
        code, lines = run_bench(exe, workload, a.seed, a.seconds, a.trace)
        print("== %s" % workload)
        result = result_of(lines)
        if result is None:
            print("\n".join(lines))
            print("%s printed no result" % workload)
            worst = max(worst, code, 1)
            continue
        print("\n".join(lines[:-1]))
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics["%s/%s" % (workload, name)] = m
        worst = max(worst, code)
    print(json.dumps({"correct": worst == 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return worst


if __name__ == "__main__":
    sys.exit(main())
