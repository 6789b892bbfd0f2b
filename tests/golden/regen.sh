#!/bin/sh
# Regenerate the golden emitter outputs pinned by tests/test_golden.cpp.
# Usage: tests/golden/regen.sh [path-to-llamp-binary]
# Keep the invocations here in sync with the GoldenCase list in the test.
set -eu
llamp="${1:-build/llamp}"
dir="$(dirname "$0")"

"$llamp" analyze --app=lulesh --ranks=8 --scale=0.05 --points=3 --dl-max-us=50 \
  > "$dir/analyze_lulesh.table.golden"
"$llamp" analyze --app=lulesh --ranks=8 --scale=0.05 --points=3 --dl-max-us=50 \
  --format=csv > "$dir/analyze_lulesh.csv.golden"
"$llamp" analyze --app=lulesh --ranks=8 --scale=0.05 --points=3 --dl-max-us=50 \
  --format=json > "$dir/analyze_lulesh.json.golden"

"$llamp" sweep --app=hpcg --ranks=8 --scale=0.05 --points=4 --dl-max-us=30 \
  > "$dir/sweep_hpcg.table.golden"
"$llamp" sweep --app=hpcg --ranks=8 --scale=0.05 --points=4 --dl-max-us=30 \
  --format=csv > "$dir/sweep_hpcg.csv.golden"
"$llamp" sweep --app=hpcg --ranks=8 --scale=0.05 --points=4 --dl-max-us=30 \
  --format=json > "$dir/sweep_hpcg.json.golden"

"$llamp" campaign --apps=lulesh,hpcg,milc --ranks=8,27 --topos=none,fat-tree \
  --scales=0.02 --points=3 --dl-max-us=20 > "$dir/campaign_grid.table.golden"
"$llamp" campaign --apps=lulesh,hpcg,milc --ranks=8,27 --topos=none,fat-tree \
  --scales=0.02 --points=3 --dl-max-us=20 --format=csv \
  > "$dir/campaign_grid.csv.golden"
"$llamp" campaign --apps=lulesh,hpcg,milc --ranks=8,27 --topos=none,fat-tree \
  --scales=0.02 --points=3 --dl-max-us=20 --format=json \
  > "$dir/campaign_grid.json.golden"

"$llamp" mc --app=hpcg --ranks=8 --scale=0.05 --points=6 --dl-max-us=50 \
  --samples=43 --sigma-L=0.1 --format=json > "$dir/mc_hpcg.json.golden"
"$llamp" mc --app=hpcg --ranks=8 --scale=0.05 --points=6 --dl-max-us=50 \
  --samples=43 --sigma-L=0.1 --edge-sigma=0.003 --format=json \
  > "$dir/mc_hpcg_noise.json.golden"

echo "regenerated $(ls "$dir"/*.golden | wc -l) golden files in $dir"
