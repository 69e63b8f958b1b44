#!/usr/bin/env bash
# The repo's benchmark, one command. Builds the `speakup` CLI from the
# root workspace and the benchmark package beside this script, then runs
# the benchmark from the repo root with whatever arguments were given:
#
#   benchmark/run.sh [--seed N] [--runs K] [--twice]     every workload
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Exits non-zero when a build or any correctness check fails. Both
# builds land in $CARGO_TARGET_DIR when it is set (taken relative to the
# repo root), else in target/ and benchmark/target/.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet -p speakup-exp --bin speakup
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/speakup-benchmark" \
    --speakup "${CARGO_TARGET_DIR:-target}/release/speakup" "$@"
