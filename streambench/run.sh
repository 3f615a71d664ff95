#!/usr/bin/env bash
# Builds the benchmark and the shipped daemon from this checkout, then
# runs one workload:
#   bash streambench/run.sh --workload sensor_64 --seed 1 --seconds 10 --trace 0
# Builds into $CARGO_TARGET_DIR, or .bench_build at the checkout root.
# Build output goes to stderr; stdout ends with the result JSON line.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$(dirname "$here")/.bench_build}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p streambench --bin streambench -p dstampede-runtime --bin dstamped >&2
exec "$target/release/streambench" --daemon "$target/release/dstamped" "$@"
