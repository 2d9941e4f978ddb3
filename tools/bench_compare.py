#!/usr/bin/env python3
"""Same-host A/B of the tlsim benchmark between two checkouts.

    python3 tools/bench_compare.py BASE_DIR HEAD_DIR [--workload W] [--pairs N]

Pair i runs ``python3 <dir>/perfbench/run.py --workload W --seed S
--seconds <run_seconds> --trace 0`` once in each checkout, alternating
which side runs first, and reads the result object from the last stdout
line. S is the i-th seed outside the held-out input set 7 (``seed % 8
== 7``; see perfbench/README.md): 0-6, 8-14, 16, ... Run held-out
pairs with ``perfbench/run.py --seed 7`` directly. ``run_seconds`` and
every end-to-end metric's ``bound`` come from HEAD's BENCHMARK.json.
The first run on each side also builds that side's benchmark into its
own ``.bench_build/``.

Fails (exit 1) when either side reports ``"correct": false``, when
HEAD's failed fraction over all its runs exceeds BASE's, or when an
end-to-end metric's HEAD median is worse than BASE's median by more
than the metric's bound. For each metric it also prints HEAD's wins out
of N pairs (ties count for neither side) and BASE's interquartile range
relative to its median: the two halves of the rule for claiming a gain,
reported here but not gated. A metric whose BASE IQR exceeds its bound
is marked UNRESOLVED: BASE alone spreads wider than the bound, so its
verdict on these pairs says little either way (rerun with more pairs).
The mark does not change the exit status.

A typical pull-request check, from the head checkout:

    git worktree add ../base origin/main
    python3 tools/bench_compare.py ../base . --workload figures --pairs 3

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(side: str, root: Path, workload: str, seed: int,
             seconds: int) -> dict:
    """Run the benchmark once in ``root``; return its result object."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit(f"{side}: no result line from {' '.join(cmd)} "
                         f"(exit {proc.returncode})")


def pair_seeds(pairs: int) -> list[int]:
    """The first ``pairs`` seeds, skipping the held-out input set 7."""
    return [s for s in range(2 * pairs) if s % 8 != 7][:pairs]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="checkout of the base commit")
    ap.add_argument("head", type=Path, help="checkout of the change")
    ap.add_argument("--workload", default="figures",
                    help="perfbench workload (default: figures)")
    ap.add_argument("--pairs", type=int, default=3,
                    help="base/head run pairs (default: 3)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs wants a count >= 1")

    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    seconds = int(spec["run_seconds"])
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    failures: list[str] = []

    seeds = pair_seeds(args.pairs)
    for i, seed in enumerate(seeds):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for side in order:
            print(f"pair {i + 1}/{args.pairs}: {side} "
                  f"({args.workload}, seed {seed})", flush=True)
            result = run_once(side, sides[side], args.workload, seed,
                              seconds)
            if not result.get("correct"):
                failures.append(f"{side} seed {seed} reported correct: "
                                f"false ({result.get('failed')} failed)")
            runs[side].append(result)

    def failed_fraction(side: str) -> float:
        attempted = sum(r.get("attempted", 0) for r in runs[side])
        failed = sum(r.get("failed", 0) for r in runs[side])
        return failed / attempted if attempted else 1.0

    if failed_fraction("head") > failed_fraction("base"):
        failures.append(
            f"head failed fraction {failed_fraction('head'):.4f} exceeds "
            f"base {failed_fraction('base'):.4f}")

    print(f"\n{args.workload}, {args.pairs} pair(s), {seconds} s runs, "
          f"seeds {', '.join(map(str, seeds))}")
    print(f"{'metric':<20} {'unit':<5} {'base':>11} {'head':>11} "
          f"{'change':>8} {'bound':>6} {'head wins':>9} {'base IQR':>9}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        b, h = statistics.median(base), statistics.median(head)
        change = (h - b) / b if b else 0.0
        worse = change if lower else -change
        wins = sum((hv < bv) if lower else (hv > bv)
                   for bv, hv in zip(base, head))
        spread = iqr(base) / b if b else 0.0
        flag = ""
        if spread > m["bound"]:
            flag += "  UNRESOLVED"
        if worse > m["bound"]:
            flag += "  << REGRESSION"
            failures.append(f"{name}: head median {h:.6g} is "
                            f"{worse:.1%} worse than base {b:.6g} "
                            f"(bound {m['bound']:.0%})")
        print(f"{name:<20} {m['unit']:<5} {b:>11.6g} {h:>11.6g} "
              f"{change:>+8.1%} {m['bound']:>6.0%} "
              f"{wins:>5}/{args.pairs:<3} {spread:>9.1%}{flag}")

    if failures:
        print("\nFAIL:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    print(f"\nOK: every end-to-end metric within its bound on "
          f"{args.workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
