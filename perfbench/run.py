#!/usr/bin/env python3
"""Build perfbench from this checkout's sources and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <train_local|train_dist|serve_actors>
                             --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds .bench_build/perfbench (about a
minute on 4 cores); later calls only re-check the build. Build output
goes to standard error, so the last line of standard output is the
perfbench binary's JSON result. The exit code is the binary's: 0 only
when every output check passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources at " + os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if rc != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans",
                os.path.join(BUILD, "spans-%s.json" % args.workload)]
    # The program reads FA3C_* variables (tracing, metrics export, fault
    # injection); run it with none but a quiet log level.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FA3C_")}
    env["FA3C_LOG_LEVEL"] = "warn"
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(rc)


if __name__ == "__main__":
    main()
