#!/usr/bin/env bash
# Regenerates every table, figure, ablation and extension study into
# results/. Scale: quick | medium (default) | paper.
set -euo pipefail

SCALE="${1:-medium}"
OUT="results"
mkdir -p "$OUT"

echo "== building (release) =="
cargo build --workspace --release

run() {
    local bin="$1"
    echo "== $bin ($SCALE) =="
    cargo run --release -q -p pubsub-bench --bin "$bin" -- --scale "$SCALE" \
        | tee "$OUT/${bin}_${SCALE}.txt"
}

for bin in table1 table2 fig7 fig8 fig9 fig10 fig11 \
           ablations modes architectures loadstats matching_perf fig7stats \
           regionalism; do
    run "$bin"
done

echo "== examples =="
mkdir -p "$OUT/examples"
for ex in quickstart stock_market regional_news live_system \
          broker_overlay trace_io; do
    echo "-- $ex"
    cargo run --release -q -p pubsub-bench --example "$ex" > "$OUT/examples/${ex}.txt"
done
# algorithm_tour prints wall-clock seconds, so its output is not kept.
echo "-- algorithm_tour"
cargo run --release -q -p pubsub-bench --example algorithm_tour

echo "all outputs in $OUT/"
