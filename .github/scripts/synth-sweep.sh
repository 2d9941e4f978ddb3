#!/usr/bin/env bash
# Synthetic adversarial sweep (EXPERIMENTS.md): Pareto tables of
# speedup vs buffering cost over topology x kind x scheme, from
# bench_synth_sweep itself; the grid must reproduce at least one
# ranking inversion against the paper's Table 2 upgrade path. Extra
# arguments go to the driver (e.g. --quick, --validate, --csv FILE).
set -euo pipefail
BUILD_DIR="${BUILD_DIR:-build}"
report="$("$BUILD_DIR/bench/bench_synth_sweep" --threads="$(nproc)" \
  --machines=numa16,mesh64,cmp32 "$@")"
printf '%s\n' "$report"
if grep -q 'upgrade path (0)' <<< "$report"; then
  echo "synth-sweep: no Table 2 ranking inversion at this grid" >&2
  exit 1
fi
