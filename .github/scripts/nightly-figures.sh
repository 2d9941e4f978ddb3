#!/usr/bin/env bash
# Nightly full-fidelity figures through the warm result store: each
# figure runs cold (populating nightly-cache) and then warm; the warm
# table must be byte-identical, and the warm pass must be served
# entirely from the store (100% hits). fig9 also runs its
# Predict+Validate variant (--validate). Every cold table must then
# match its committed golden byte for byte, the same gate the PR tier
# applies (figure-tables.sh).
set -euo pipefail
GOLDEN_DIR="$(pwd)/goldens"
BUILD_DIR="${BUILD_DIR:-build}"
cd "$BUILD_DIR"
mkdir -p figure-tables
run_fig() { # name, command...
  local name="$1"; shift
  "$@" --cache-dir=nightly-cache \
    --cache-stats="nightly_${name}_stats.jsonl" \
    > "figure-tables/${name}.txt"
  "$@" --cache-dir=nightly-cache \
    --cache-stats="nightly_${name}_stats.jsonl" \
    > "figure-tables/${name}_warm.txt"
  diff "figure-tables/${name}.txt" "figure-tables/${name}_warm.txt"
  rm "figure-tables/${name}_warm.txt"
  python3 -c "import json, sys; \
    cold, warm = [json.loads(l) for l in open('nightly_${name}_stats.jsonl')]; \
    assert cold['stores'] == cold['misses'], cold; \
    assert warm['misses'] == 0 and warm['hits'] > 0, warm"
}
run_fig fig9 ./bench/bench_fig9_numa --threads="$(nproc)"
run_fig fig9_validate ./bench/bench_fig9_numa --threads="$(nproc)" --validate
run_fig fig10 ./bench/bench_fig10_amm_fmm --threads="$(nproc)"
run_fig fig11 ./bench/bench_fig11_cmp --threads="$(nproc)"
for fig in fig9 fig9_validate fig10 fig11; do
  cmp "$GOLDEN_DIR/${fig}.txt" "figure-tables/${fig}.txt"
done
