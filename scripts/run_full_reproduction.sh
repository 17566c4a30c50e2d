#!/usr/bin/env bash
# Full paper-scale reproduction: every bench at --full scale with CSV
# output, one file per table/figure under results/.
#
# Reduced-scale (default) runs finish in minutes and preserve every shape;
# --full uses the paper's longer windows and more seeds and can take a few
# hours in total. Usage:
#
#   ./scripts/run_full_reproduction.sh [results_dir] [extra bench flags...]
set -euo pipefail

cd "$(dirname "$0")/.."
RESULTS="${1:-results}"
shift || true

cmake -B build -G Ninja
cmake --build build

mkdir -p "$RESULTS"
for bench in build/bench/bench_*; do
  name="$(basename "$bench")"
  if [ "$name" = "bench_micro" ]; then
    # google-benchmark harness: no --full/--csv vocabulary.
    echo "=== $name ==="
    "$bench" --benchmark_format=csv > "$RESULTS/$name.csv" || true
    continue
  fi
  csv=--csv
  case "$name" in
    # Standalone matrix/throughput benches write JSON and take no --csv
    # (every bench rejects flags it does not read).
    bench_backend_matrix|bench_event_throughput|bench_fragmentation|\
    bench_overload|bench_query_throughput) csv= ;;
  esac
  echo "=== $name (--full) ==="
  "$bench" --full $csv "$@" | tee "$RESULTS/$name.txt"
done

echo
echo "Done. Text + CSV outputs in $RESULTS/."
