#!/usr/bin/env python3
"""Run one workload of the cmpqos benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the library and the
benchmark binary (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR
(default .bench_build), then:

  --trace 0  takes SETUP_SAMPLES set-up samples (process start to the
             first arrival offered, each in a fresh process so the
             solo-CPI calibration memo is cold) and one measured run,
             and prints the end-to-end metrics;
  --trace 1  runs the separate traced replay and prints the per-layer
             metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exit code 0 iff every check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("paper_mix", "admission_churn", "qosd_fed")
# Set-up samples per untraced run; setup_s is their median.
SETUP_SAMPLES = 9
# Every child together must end this long after the build: a run ends
# within 180 s.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 840
# glibc raises its mmap threshold after the first large free, so whether
# a job's ~8 MB stack sampler is freshly mapped (page faults) or reused
# from an arena depends on allocation history and on which thread builds
# it; in qosd_fed that made admission latency bimodal from run to run.
# A fixed threshold maps every large block afresh, every time.
CHILD_ENV = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def source_identity(root):
    """git hash when the checkout is a repository, else 'none', plus a
    hash of the library sources so trees can be told apart without git."""
    git = "none"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            git = subprocess.run(
                ["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            git = "none"
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return git, digest.hexdigest()[:12]


def cached_source(build_dir):
    """The source directory the build tree's CMake cache was made for,
    or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return os.path.realpath(line.split("=", 1)[1].strip())
    except OSError:
        pass
    return None


def build(root, build_dir):
    bench_src = os.path.join(root, "perfbench")
    cmd_cfg = ["cmake", "-S", bench_src, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        cmd_cfg += ["-G", "Ninja"]
    if cached_source(build_dir) != os.path.realpath(bench_src):
        # No cache, or one configured for another checkout: a cache
        # that names a moved or removed source tree cannot rebuild.
        shutil.rmtree(build_dir, ignore_errors=True)
        subprocess.run(cmd_cfg, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def run_child(binary, args, run_dir, mode, deadline):
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        [binary] + args + ["--mode", mode, "--t0-ns", str(t0)],
        cwd=run_dir, env=CHILD_ENV, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode < 0:
        log("perfbench %s killed by signal %d" % (mode, -proc.returncode))
    if not lines:
        raise RuntimeError("perfbench %s printed nothing (exit %d)"
                           % (mode, proc.returncode))
    return proc.returncode, json.loads(lines[-1]), lines[:-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    if opts.seed < 0 or opts.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no cmpqos source tree at %s/src" % root)
        return 1
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "perfbench")
    binary = build(root, build_dir)
    deadline = time.monotonic() + RUN_BUDGET_S

    run_dir = os.path.join(os.path.dirname(build_dir),
                           "run-%d" % os.getpid())
    os.makedirs(run_dir, exist_ok=True)
    try:
        args = ["--workload", opts.workload, "--seed", str(opts.seed),
                "--seconds", str(opts.seconds)]
        if opts.trace:
            code, result, notes = run_child(binary, args, run_dir, "trace",
                                             deadline)
        else:
            setup = []
            for _ in range(SETUP_SAMPLES - 1):
                c, r, _ = run_child(binary, args, run_dir, "setup",
                                    deadline)
                if c != 0:
                    log("set-up sample failed")
                    return 1
                setup.append(r["metrics"]["setup_s"]["value"])
            code, result, notes = run_child(binary, args, run_dir, "run",
                                             deadline)
            setup.append(result["metrics"]["setup_s"]["value"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setup)
            notes.append("# setup_s samples " +
                         " ".join("%.4f" % s for s in setup))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    git, tree = source_identity(root)
    for line in notes:
        print(line)
    print("# source git=%s src_sha256=%s" % (git, tree))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError, KeyError) as e:
        log("error: %s" % e)
        sys.exit(1)
