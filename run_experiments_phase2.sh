#!/bin/bash
set -u
cd "$(dirname "$0")"
echo "=== table3_hierarchical (full) ==="
./target/release/table3_hierarchical || echo FAILED
for bin in table4_wirelength_ablation table5_component_ablation fig_congestion_map fig_convergence fig_inflation_sweep fig_runtime_breakdown fig_density_sweep; do
  echo "=== $bin (smoke) ==="
  ./target/release/$bin --smoke || echo FAILED
done
echo "=== phase2 done ==="
