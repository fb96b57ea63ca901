#!/bin/bash
# Regenerates every table and figure of EXPERIMENTS.md (full-size suite).
set -u
cd "$(dirname "$0")"
mkdir -p target/experiments
for bin in table1_suite table2_dac2012 table3_hierarchical table4_wirelength_ablation \
           table5_component_ablation fig_congestion_map fig_convergence \
           fig_inflation_sweep fig_runtime_breakdown fig_density_sweep; do
  echo "=== $bin ==="
  ./target/release/$bin || echo "FAILED: $bin"
done
echo "=== all experiments done ==="
