#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the given
# arguments, e.g.:
#   bash perfbench/run.sh --workload cohort --seed 1906 --seconds 10 --trace 0
# Must be started from the repository root. The build lands in
# $CARGO_TARGET_DIR (default perfbench/target).
set -euo pipefail
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench" "$@"
