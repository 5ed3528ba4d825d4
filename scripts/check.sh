#!/usr/bin/env bash
# Repo health gate: release build, full test suite, lint-clean workspace,
# warning-free rustdoc and benchmark.
#
# With --bench-gates, additionally runs the seven performance gates (health,
# detect, obs, campaign, monitor, resilience and trace, each with its
# budget/regression checks). These take several minutes, so they are
# opt-in; any extra arguments (e.g. --force) are forwarded to the gate
# scripts.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_GATES=0
if [[ "${1:-}" == "--bench-gates" ]]; then
  BENCH_GATES=1
  shift
fi

echo "==> cargo build --release"
cargo build --release

# The workspace's default members include every crate, so this runs the
# chaos, storm, scale, monitor and resilience gauntlets in crates/study/tests
# along with every other test.
echo "==> cargo test -q"
cargo test -q

# perfbench (the repository benchmark) is a workspace of its own, so the
# root `cargo test` never reaches its unit tests — among them `check_pass`,
# the benchmark's correctness gate.
echo "==> cargo test -q --manifest-path perfbench/Cargo.toml"
cargo test -q --manifest-path perfbench/Cargo.toml

# Same reason: `clippy --workspace` below never lints perfbench.
echo "==> cargo clippy --manifest-path perfbench/Cargo.toml -- -D warnings"
cargo clippy --manifest-path perfbench/Cargo.toml -- -D warnings

echo "==> forensics smoke (flight-recorder dump -> replay -> per-link timelines)"
cargo run --release --example forensics > /dev/null

echo "==> live monitor smoke (round loop -> sequenced ingest -> ground-truth checks)"
cargo run --release --example online_monitor > /dev/null

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

# Neither the build nor clippy resolves intra-doc links, so a link to a
# deleted or renamed item would otherwise rot unnoticed.
echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> cargo bench --no-run"
cargo bench --no-run

if [[ "$BENCH_GATES" == "1" ]]; then
  echo "==> bench gate: health (<5% overhead, >10% regression)"
  scripts/bench_health.sh "$@"
  echo "==> bench gate: detect (>10% regression)"
  scripts/bench_detect.sh "$@"
  echo "==> bench gate: obs (<3% overhead, >10% regression)"
  scripts/bench_obs.sh "$@"
  echo "==> bench gate: campaign (1k/10k/100k scaling, >10% regression)"
  scripts/bench_campaign.sh "$@"
  echo "==> bench gate: monitor (ingest throughput + resident RSS ceiling)"
  scripts/bench_monitor.sh "$@"
  echo "==> bench gate: resilience (<3% sequenced-ingest overhead)"
  scripts/bench_resilience.sh "$@"
  echo "==> bench gate: trace (<3% live flight-recorder overhead)"
  scripts/bench_trace.sh "$@"
fi

echo "==> all checks passed"
