#!/usr/bin/env bash
# Build the lifecycle benchmark from this checkout's sources and run it.
# Run from the repository root; every argument goes to the benchmark, e.g.
#   bash lifebench/run.sh --workload point-tz --seed 1 --seconds 10 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), and the
# benchmark's scratch files and traces to its lifebench-work directory.
set -euo pipefail
cd "$(dirname "$0")/.."
for crate in graph congest core store serve analysis; do
    if [ ! -f "crates/$crate/Cargo.toml" ]; then
        echo "lifebench: crates/$crate is missing; run from a full checkout" >&2
        exit 2
    fi
done
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path lifebench/Cargo.toml --target-dir "$target" >&2
exec "$target/release/lifebench" --work-dir "$target/lifebench-work" "$@"
