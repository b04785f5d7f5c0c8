#!/usr/bin/env bash
# Builds the tpp binary and the e2ebench binary (release), then runs
# e2ebench from the repository root with the arguments given, e.g.
#   bash e2ebench/run.sh --workload oneshot-ba50k --seed 1 --seconds 10 --trace 0
#   bash e2ebench/run.sh --self-test
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p tpp-cli --bin tpp
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/e2ebench" --tpp "$CARGO_TARGET_DIR/release/tpp" "$@"
