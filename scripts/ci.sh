#!/usr/bin/env bash
# Full local CI: release build, tests, clippy with warnings denied.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> no pointer to the retired bench estate (perfbench/ is the one benchmark)"
# Bare `criterion` is not in the pattern: om-discretize/src/mdl.rs uses
# the English word. The one-letter brackets keep this line from
# matching itself.
if git grep -nE 'om[-_]bench|vendor/[c]riterion|[c]riterion::|BENCH_[6-9]\.json|OM_BENCH[_]|OM_[F]ULL' \
    -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!PAPER.md' ':!perfbench'; then
    echo "stale reference(s) above: point them at tests/paper_claims.rs or a perfbench metric" >&2
    exit 1
fi

echo "==> cargo fmt --check, one crate at a time (every crate under crates/)"
for crate in om-ingest om-api om-fault om-lint om-server om-cluster om-cube om-cli om-exec om-explore om-data om-compare om-car om-gi om-viz om-discretize om-engine om-stats om-synth; do
    cargo fmt -p "$crate" --check
done

echo "==> cargo build --release (default members: root package + every crate, opmap included)"
cargo build --release

echo "==> cargo test -q (tier-1: root package + every crate)"
cargo test -q

echo "==> vendored shims' own tests (outside the default members)"
cargo test -q -p bytes -p crossbeam -p parking_lot -p proptest -p rand

echo "==> cargo test -p om-exec --test determinism -q (parallel == serial, byte-for-byte)"
cargo test -p om-exec --test determinism -q

echo "==> om-lint fixtures (check self-test corpus; debug + release)"
# Both build configs: the interprocedural fixpoint must behave the same
# with and without debug assertions/overflow checks.
cargo run -q -p om-lint -- fixtures
cargo run -q --release -p om-lint -- fixtures

echo "==> om-lint check (workspace invariants; JSON artifact in target/; 30s budget)"
# The JSON dump always lands (artifact even on failure); the plain run
# gates the script with readable findings. The wall-clock budget keeps
# the call-graph + effect-summary pass from quietly becoming the slow
# part of CI as the workspace grows.
lint_start=$(date +%s)
cargo run -q -p om-lint -- check --json > target/om-lint.json || true
cargo run -q -p om-lint -- check
lint_elapsed=$(( $(date +%s) - lint_start ))
if [ "$lint_elapsed" -gt 30 ]; then
    echo "om-lint check exceeded its 30s wall-clock budget (took ${lint_elapsed}s)" >&2
    exit 1
fi

# No manifest declares a feature, so the workspace run builds the one
# configuration there is.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> perfbench/smoke.sh (the benchmark still builds and runs against these crates)"
# perfbench is its own package outside the workspace, so nothing above
# compiles it: an API change that breaks it must fail here, not in the
# benchmark pipeline. Its lock is frozen with it: cargo rewrites
# perfbench/Cargo.lock when a path crate's `[dependencies]` moved, and
# the benchmark pipeline builds `--offline` from the committed one.
lock_before=$(sha256sum perfbench/Cargo.lock)
perfbench/smoke.sh
if [ "$lock_before" != "$(sha256sum perfbench/Cargo.lock)" ]; then
    echo "cargo rewrote perfbench/Cargo.lock: a frozen [dependencies] table moved (ROADMAP ground rules)" >&2
    exit 1
fi

# --smoke switches off the guards a full run is judged by (sample counts,
# unimodal drill latencies, the 2 s set-up floor), so a change can pass
# the smoke and still die in the benchmark pipeline. One full-shape run
# per workload, as the driver invokes it, must exit 0.
for workload in wide_single tall_single tall_cluster; do
    echo "==> perfbench --workload $workload --seed 1 --seconds 30 --trace 0 (full shape, every guard on)"
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 30 --trace 0
done

echo "==> cluster loopback smoke (2 shards, byte-identity vs single node, chaos + ingest)"
# Spawns 2 real shard processes on ephemeral ports, byte-compares every
# coordinator response against a single-node server over the union,
# kills + WAL-revives a shard mid-load, and checks post-ingest identity.
target/release/opmap cluster --shards 2 --records 6000 --requests 200 \
  --verify --chaos --ingest

echo "==> cluster loopback smoke (4 shards, byte-identity incl. concurrent ingest)"
target/release/opmap cluster --shards 4 --records 6000 --requests 200 \
  --verify --ingest

echo "==> replicated cluster chaos smoke (2 partitions x 2 replicas)"
# Kills the preferred replica of every partition mid-load (zero 5xx
# expected under replication), WAL-revives them, proves whole-partition
# loss degrades into an allow_partial coverage envelope, and ends with
# byte-identity against a single node over the union.
target/release/opmap cluster --shards 2 --replicas 2 --records 6000 \
  --requests 200 --verify --chaos --ingest

echo "==> replicated chaos smoke under failpoints (delayed store fetches)"
# The same guarantees must hold while every shard's store handler is
# slowed; exercises retry + deadline paths. OM_FAILPOINTS arms the
# release binary; a misspelled entry refuses to start.
OM_FAILPOINTS="server.internal-store=delay:5" \
  target/release/opmap cluster \
  --shards 2 --replicas 2 --records 4000 --requests 120 \
  --verify --chaos --ingest

echo "==> ci OK"
