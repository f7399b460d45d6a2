#!/usr/bin/env bash
# Proves the benchmark's plumbing in well under a minute: unit tests,
# then every workload at the smoke shape (untraced and traced), checked
# against BENCHMARK.json. Run from the repository root or from here.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release --offline --quiet --manifest-path perfbench/Cargo.toml
bench=(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --)
"${bench[@]}" spec --check --smoke
"${bench[@]}" run --smoke
