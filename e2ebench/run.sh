#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Cargo's output goes to stderr, so the
# benchmark's JSON result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml 1>&2
exec "${CARGO_TARGET_DIR:-e2ebench/target}/release/e2ebench" "$@"
