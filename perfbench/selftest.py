#!/usr/bin/env python3
"""Self-test of the tlsim benchmark's own checks (see README.md here).

    python3 perfbench/selftest.py

Checks, each on a short run:
  1. an unaltered run is reported correct;
  2. one deliberately altered reference entry is reported as a failed
     point (batch path) and as a failed request (serve path);
  3. points that overrun their host-time budget are reported as
     failed and not waited on;
  4. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
Scratch files go under .bench_build/perfbench/selftest. Exits non-zero
on the first check that does not hold.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench", "selftest")
SEED = 3  # input set 3


def run(workload, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", "0"] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def expect(cond, what, stderr=""):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        sys.stderr.write(stderr[-3000:])
        sys.exit(1)


def altered_reference(workload):
    """A copy of the reference with one point of input set SEED % 8
    given a different execution time."""
    ref = os.path.join(SCRATCH, "ref-" + workload)
    shutil.rmtree(ref, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "reference"), ref)
    path = os.path.join(ref, workload + ".txt")
    with open(path) as f:
        lines = f.readlines()
    for i, line in enumerate(lines):
        fields = line.split()
        if fields and fields[0] == str(SEED % 8) and \
                not fields[1].endswith("/seq"):
            fields[2] = str(int(fields[2]) + 1)
            lines[i] = " ".join(fields) + "\n"
            break
    with open(path, "w") as f:
        f.writelines(lines)
    return ref


def main():
    os.makedirs(SCRATCH, exist_ok=True)

    rc, res, err = run("adversarial")
    expect(rc == 0 and res and res["correct"] and res["failed"] == 0,
           "unaltered reference: every point correct", err)

    for workload in ("adversarial", "serve"):
        rc, res, err = run(workload, "--reference",
                           altered_reference(workload))
        expect(rc == 0 and res and not res["correct"] and
               res["failed"] >= 1,
               "altered %s reference entry: reported as failed (%s of %s)"
               % (workload, res and res["failed"], res and res["attempted"]),
               err)

    rc, res, err = run("adversarial", "--budget-scale", "0.000001")
    expect(rc == 0 and res and not res["correct"] and res["failed"] >= 1,
           "points over budget: reported as failed, not waited on", err)

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    rc, res, err = run("figures", cwd=bare)
    expect(rc != 0 and res is None,
           "bare directory: exit %d and no result" % rc, err)
    shutil.rmtree(bare)


if __name__ == "__main__":
    main()
