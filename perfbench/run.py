#!/usr/bin/env python3
"""Build and run the tlsim benchmark (see README.md in this directory).

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

The first run configures and builds the simulator libraries, tlsim_serve
and the driver into .bench_build/perfbench (later runs rebuild only what
changed). Build output goes to stderr; the driver's last stdout line is
the result object. Extra flags (e.g. --reference DIR) go to the driver.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# The driver's own budgets end any run well before this; it is the
# last line of defence for the benchmark's 180 s limit per run.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no tlsim sources next to perfbench/ "
                 "(run from a full checkout)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["figures", "adversarial", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = ap.parse_known_args()

    build()
    cmd = [os.path.join(BUILD, "tlsbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--reference", os.path.join(HERE, "reference"),
           "--serve-bin", os.path.join(BUILD, "tlsim_serve"),
           "--work-dir", os.path.join(BUILD, "work")] + extra
    # Own process group, so a timeout also ends tlsim_serve children.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
