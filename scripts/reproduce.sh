#!/usr/bin/env bash
# Rebuilds everything, runs the full test suite, regenerates every
# table/figure of the paper into results/, and runs the claim tour.
# Usage: scripts/reproduce.sh [build-dir]
#
# The host microbenches bench_layer_contention and bench_perf_hotpath
# reproduce no paper table or figure (they time this machine, not the
# model), so they are skipped here. Run them directly:
#   build/bench/bench_layer_contention   # per-layer ns/elem, docs/performance.md
#   build/bench/bench_perf_hotpath       # engine-mode throughput
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD="${1:-build}"

cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"
ctest --test-dir "$BUILD" -j"$(nproc)" --output-on-failure

mkdir -p results
for b in "$BUILD"/bench/bench_*; do
  name="$(basename "$b")"
  case "$name" in
    bench_layer_contention | bench_perf_hotpath) continue ;;
  esac
  echo "== $name"
  "$b" | tee "results/${name}.txt"
done

"$BUILD"/examples/paper_tour | tee results/paper_tour.txt
echo "All outputs in results/."
