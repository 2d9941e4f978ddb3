#!/usr/bin/env python3
"""Client for the tlsim sweep service (``tlsim_serve``).

Spawns ``build/tools/tlsim_serve`` (or talks to any process speaking
the same JSON-lines protocol on stdin/stdout, see src/sim/serve.hpp),
sends one sweep request per invocation — machine x apps/synth x
schemes x reps x faults — and renders the per-point results plus the
request's cache hit/miss statistics. ``--repeat N`` sends the same
request N times through one server process, which is the quickest way
to watch a cold cache turn warm.

Standard library only. Examples:

    tools/sweep_client.py --apps P3m,Tree --schemes 0,5 \\
        --cache-dir .tlsim-cache
    tools/sweep_client.py --synth kind=graph,tasks=64 --machine cmp8 \\
        --repeat 2 --json
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
from pathlib import Path


def build_request(args: argparse.Namespace, rid: str) -> dict:
    req: dict = {"id": rid, "machine": args.machine}
    if args.apps:
        req["apps"] = args.apps.split(",")
    if args.synth:
        req["synth"] = args.synth
    if args.schemes:
        req["schemes"] = [
            int(s) if s.lstrip("-").isdigit() else s
            for s in args.schemes.split(",")
        ]
    if args.reps != 1:
        req["reps"] = args.reps
    if args.faults:
        req["faults"] = args.faults
    if args.baseline:
        req["baseline"] = True
    return req


def serve_command(args: argparse.Namespace) -> list[str]:
    cmd = [str(args.serve)]
    if args.cache_dir:
        cmd.append(f"--cache-dir={args.cache_dir}")
    if args.cache_verify:
        cmd.append(f"--cache-verify={args.cache_verify}")
    if args.threads is not None:
        cmd.append(f"--threads={args.threads}")
    return cmd


def render(resp: dict) -> str:
    out = io.StringIO()
    if not resp.get("ok"):
        out.write(f"request failed: {resp.get('error', '?')}\n")
        return out.getvalue()

    header = ["Workload", "Scheme", "Rep", "Exec", "Squashes", "Cached"]
    fmt = "{:<22} {:<22} {:>3} {:>12} {:>8} {:>6}\n"
    out.write(fmt.format(*header))
    for b in resp.get("baselines", []):
        out.write(
            fmt.format(
                b["workload"],
                "(sequential)",
                "-",
                b["exec"],
                "-",
                "yes" if b["cached"] else "no",
            )
        )
    for p in resp.get("points", []):
        out.write(
            fmt.format(
                p["workload"],
                p["scheme"],
                p["rep"],
                p["exec"],
                p["squashes"],
                "yes" if p["cached"] else "no",
            )
        )
    stats = resp.get("stats", {})
    out.write(
        "cache: {hits} hit(s), {misses} miss(es), {stores} store(s), "
        "{corrupt} corrupt, {verified} verified; {ms} ms\n".format(
            hits=stats.get("hits", 0),
            misses=stats.get("misses", 0),
            stores=stats.get("stores", 0),
            corrupt=stats.get("corrupt", 0),
            verified=stats.get("verified", 0),
            ms=resp.get("elapsed_ms", "?"),
        )
    )
    return out.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--serve",
        type=Path,
        default=Path("build/tools/tlsim_serve"),
        help="path to the tlsim_serve binary",
    )
    ap.add_argument("--cache-dir", help="result-cache directory")
    ap.add_argument(
        "--cache-verify",
        help="fraction of hits to recompute and byte-compare",
    )
    ap.add_argument("--machine", default="numa16", help="machine name")
    ap.add_argument("--apps", help="comma list of suite apps, e.g. P3m,Tree")
    ap.add_argument(
        "--synth",
        action="append",
        help="synth spec string (repeatable), e.g. kind=graph,tasks=64",
    )
    ap.add_argument(
        "--schemes",
        help="comma list of scheme indices or names; default all",
    )
    ap.add_argument("--reps", type=int, default=1, help="replications")
    ap.add_argument("--faults", help="fault spec string")
    ap.add_argument(
        "--baseline",
        action="store_true",
        help="also run sequential baselines",
    )
    ap.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="send the request N times through one server",
    )
    ap.add_argument("--threads", type=int, help="server sweep threads")
    ap.add_argument(
        "--json",
        action="store_true",
        help="print raw response lines instead of tables",
    )
    ap.add_argument(
        "--expect-warm",
        action="store_true",
        help="fail unless the final repeat is answered entirely from "
        "the result store (0 misses, every point cached)",
    )
    args = ap.parse_args()

    if not args.apps and not args.synth:
        raise SystemExit("nothing to sweep: pass --apps and/or --synth")
    if not args.serve.exists():
        raise SystemExit(f"serve binary not found: {args.serve}")

    requests = [
        build_request(args, f"req-{i}") for i in range(args.repeat)
    ]
    payload = "".join(json.dumps(r) + "\n" for r in requests)

    proc = subprocess.run(
        serve_command(args),
        input=payload,
        capture_output=True,
        text=True,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{args.serve} exited {proc.returncode}")

    responses = [
        json.loads(line)
        for line in proc.stdout.splitlines()
        if line.strip()
    ]
    if len(responses) != len(requests):
        raise SystemExit(
            f"expected {len(requests)} response(s), got {len(responses)}"
        )
    failed = False
    for resp in responses:
        if args.json:
            sys.stdout.write(json.dumps(resp) + "\n")
        else:
            if len(responses) > 1:
                sys.stdout.write(f"--- {resp.get('id', '?')} ---\n")
            sys.stdout.write(render(resp))
        failed = failed or not resp.get("ok")
    if args.expect_warm and not failed:
        last = responses[-1]
        stats = last.get("stats", {})
        uncached = [
            p["workload"]
            for p in last.get("points", []) + last.get("baselines", [])
            if not p.get("cached")
        ]
        if stats.get("misses", 0) != 0 or stats.get("hits", 0) == 0 or uncached:
            sys.stderr.write(
                "expect-warm failed: final repeat was not fully "
                f"cache-served (stats={stats}, uncached={uncached})\n"
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
