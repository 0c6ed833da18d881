#!/usr/bin/env python3
"""Reference figures for perfbench/README.md.

    python3 perfbench/spread.py [--seconds S] [--seeds 1-10] [--workloads a,b]

Run from the root of a source checkout. For each workload, runs
perfbench/run.py once per seed (untraced) and prints, per end-to-end
metric, the median, the quartiles and the quartile spread as a share of
the median (statistics.quantiles(values, n=4)), then one traced run
(first seed) and its self-time breakdown and tracing overhead.
Runs are sequential: concurrent runs would perturb each other.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

WORKLOADS = ("paper_mix", "admission_churn", "qosd_fed")


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    t = time.monotonic()
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.exit("%s seed %d printed nothing:\n%s"
                 % (workload, seed, p.stderr[-2000:]))
    return p.returncode, lines, time.monotonic() - t


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--no-trace", action="store_true")
    opts = ap.parse_args()

    for workload in opts.workloads.split(","):
        values = {}
        units = {}
        failed = []
        print("== %s (%d runs, %d s each)" %
              (workload, len(opts.seeds), opts.seconds), flush=True)
        for seed in opts.seeds:
            code, lines, wall = run(workload, seed, opts.seconds, 0)
            r = json.loads(lines[-1])
            failed.append((r["failed"], r["attempted"]))
            print("  seed %d: exit %d correct %s attempted %d failed %d "
                  "wall %.1f s" % (seed, code, r["correct"],
                                   r["attempted"], r["failed"], wall),
                  flush=True)
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med if med else float("nan")
            print("  %-22s %-9s median %11.5g  q1 %11.5g  q3 %11.5g  "
                  "spread %.3f" % (name, units[name], med, q1, q3, share))
        if not opts.no_trace:
            code, lines, wall = run(workload, opts.seeds[0],
                                    opts.seconds, 1)
            print("  traced run (seed %d): exit %d, wall %.1f s"
                  % (opts.seeds[0], code, wall))
            for line in lines[:-1]:
                print("  " + line)
            for name, m in json.loads(lines[-1])["metrics"].items():
                print("    %-34s %12.5g %s" % (name, m["value"], m["unit"]))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
