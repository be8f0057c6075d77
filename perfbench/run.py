#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--threads N] [--workers N] [--clients N]

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later calls only
re-check the build.  The last line of stdout is the result object; its
metrics are exactly the end_to_end (--trace 0) or per_layer (--trace 1)
metrics BENCHMARK.json lists.  A per-layer metric of a layer the workload
never calls reads 0.  A run whose outputs fail a correctness check exits 1
and prints no result.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the perfbench target, serialized by a lock."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to the benchmark (src/CMakeLists.txt)")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD, "perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--threads", default="2")
    parser.add_argument("--workers", default="2")
    parser.add_argument("--clients", default="2")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]

    binary = build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("PGMCML_")}
    env["PERFBENCH_GIT_SHA"] = git_sha()
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--threads", args.threads, "--workers", args.workers,
           "--clients", args.clients]
    # Scratch files land in ./.bench_work (relative, which keeps the daemon's
    # socket path short).  Own process group, so a timeout also stops forked
    # campaign workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        # Exit code 5 is a failed correctness check; the context line names it.
        sys.stderr.write(stdout)
        fail("perfbench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        fail("the workload's outputs are wrong")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if args.trace == "0":
                fail("workload did not report %s" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        metrics[m["name"]] = got
    result["metrics"] = metrics
    print(lines[-2])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
