#!/usr/bin/env bash
# Figure tables (deterministic output — both compilers and any thread
# count produce identical tables). PR tier generates the three paper
# figures, fig9's Predict+Validate variant, Figure 1's behavior table,
# the design ablations (the only driver of line-granularity detection
# and of the overflow-area sweeps) and the quick synthetic grid's CSV
# on numa16, mesh64 and cmp32, in-order and OoO with Predict+Validate
# (the only PR-tier run of the scaled machines and of FMM's
# MTID-reject parking on mesh64), and requires each to be
# byte-identical to its committed golden, so a change that claims
# identical output is checked on every PR. The nightly tier
# regenerates fig9, fig9 --validate, fig10 and fig11 through the warm
# result store and cmps them against the same goldens
# (nightly-figures.sh).
set -euo pipefail
GOLDEN_DIR="$(pwd)/goldens"
BUILD_DIR="${BUILD_DIR:-build}"
cd "$BUILD_DIR"
mkdir -p figure-tables
./bench/bench_fig9_numa --threads="$(nproc)" > figure-tables/fig9.txt
./bench/bench_fig9_numa --threads="$(nproc)" --validate \
  > figure-tables/fig9_validate.txt
./bench/bench_fig10_amm_fmm --threads="$(nproc)" > figure-tables/fig10.txt
./bench/bench_fig11_cmp --threads="$(nproc)" > figure-tables/fig11.txt
./bench/bench_fig1_behavior --threads="$(nproc)" > figure-tables/fig1.txt
./bench/bench_ablations --threads="$(nproc)" > figure-tables/ablations.txt
SYNTH=(./bench/bench_synth_sweep --quick --threads="$(nproc)"
       --machines=numa16,mesh64,cmp32)
"${SYNTH[@]}" --csv figure-tables/synth_quick.csv > /dev/null
"${SYNTH[@]}" --core=ooo --validate \
  --csv figure-tables/synth_quick_ooo_vp.csv > /dev/null
for fig in fig1 fig9 fig9_validate fig10 fig11 ablations; do
  cmp "$GOLDEN_DIR/${fig}.txt" "figure-tables/${fig}.txt"
done
for grid in synth_quick synth_quick_ooo_vp; do
  cmp "$GOLDEN_DIR/${grid}.csv" "figure-tables/${grid}.csv"
done
