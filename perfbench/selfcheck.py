#!/usr/bin/env python3
"""Self-checks of the perfbench benchmark.

Run from the repository root:

    python3 perfbench/selfcheck.py [--seconds S] [--seed N]

1. Output checks: with one expected entry corrupted (`--corrupt-expected`),
   every workload must report pass_rate < 1 and correct = false.
2. Sensitivity: each workload is run untraced, traced, and untraced with
   each `--repeat` layer. Repeating a layer whose traced share of operation
   time is s makes an operation take 1 + s times as long, so ops_per_s
   should fall by s / (1 + s) on the workload that makes the call and not
   move on the others.
3. Tracing overhead: the traced run's ops_per_s minus that of the
   untraced runs just before and after it.

Exits non-zero if a check fails. Timings on a shared host drift by 10-20%
between runs, so the sensitivity check allows TOLERANCE either way.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["paper-timing", "full-verify", "compile-lint"]
# Repeat option -> (the workload that makes the call, the traced share
# that predicts its cost there).
REPEATS = {
    "lint": ("compile-lint", "analysis.lint.share"),
    "sim-timing": ("paper-timing", "sim.run.share"),
    "sim-full": ("full-verify", "sim.run.share"),
}
TOLERANCE = 0.15

CARGO = ["cargo", "run", "--release", "--quiet", "--offline",
         "--manifest-path", "perfbench/Cargo.toml", "--"]


def run(workload, seed, seconds, trace=0, extra=()):
    cmd = CARGO + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def value(result, name):
    return result["metrics"][name]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    ok = True

    print("1. corrupted expected entry")
    for w in WORKLOADS:
        r = run(w, args.seed, 1, extra=["--corrupt-expected"])
        rate = value(r, "pass_rate")
        good = rate < 1 and not r["correct"]
        ok &= good
        print(f"   {w:13s} pass_rate {rate:.4f} ({r['failed']} of {r['attempted']} failed)"
              f"  {'ok' if good else 'FAIL'}")

    print("2. sensitivity (ops_per_s fall: observed vs predicted)")
    traced = {}
    falls = {}
    overhead = {}
    for w in WORKLOADS:
        # Plain runs alternate with the others, and each other run is
        # compared with the mean of the two plain runs around it, so that
        # slow drift in host speed cancels.
        plain = [value(run(w, args.seed, args.seconds), "ops_per_s")]

        def around():
            plain.append(value(run(w, args.seed, args.seconds), "ops_per_s"))
            return (plain[-2] + plain[-1]) / 2

        traced[w] = run(w, args.seed, args.seconds, trace=1)
        t = value(traced[w], "trace.ops_per_s")
        overhead[w] = (t, around())
        for rep in REPEATS:
            r = value(run(w, args.seed, args.seconds, extra=["--repeat", rep]), "ops_per_s")
            falls[rep, w] = 1 - r / around()
    print(f"   {'repeat':11s}" + "".join(f"{w:>26s}" for w in WORKLOADS))
    for rep, (target, share_name) in REPEATS.items():
        cells = []
        for w in WORKLOADS:
            share = value(traced[w], share_name) if w == target else 0.0
            want = share / (1 + share)
            good = abs(falls[rep, w] - want) <= TOLERANCE
            ok &= good
            cells.append(f"{falls[rep, w]:+.3f} vs {want:.3f} {'ok' if good else 'FAIL'}")
        print(f"   {rep:11s}" + "".join(f"{c:>26s}" for c in cells))

    print("3. tracing overhead (traced - untraced ops_per_s)")
    for w in WORKLOADS:
        t, u = overhead[w]
        print(f"   {w:13s} {t:.3f} - {u:.3f} = {t - u:+.3f} 1/s ({(t - u) / u:+.1%})")

    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
