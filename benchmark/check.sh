#!/usr/bin/env bash
# Unit tests, then a smoke run of all four workloads, untraced and traced,
# checked against the committed smoke goldens (well under 20 s once built).
# Exits non-zero on any failed test, digest mismatch, audit violation or
# failed job. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --all --smoke --trace
