#!/usr/bin/env bash
# Builds the `ddcr` CLI and the benchmark from source (release profile) and
# runs the benchmark with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload saturated-32 --seed 3 --seconds 12 --trace 0
#
# Build output goes to stderr, so the benchmark's last stdout line stays its
# JSON result. Builds land in $CARGO_TARGET_DIR (default: target/).
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p ddcr-cli 1>&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/ddcr-benchmark" "$@"
