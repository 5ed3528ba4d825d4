#!/usr/bin/env bash
# Repo health gate: release build, full test suite, lint-clean workspace,
# warning-free rustdoc and benchmark.
#
# With --bench-gates, additionally runs the bench-gate binary, which runs
# all seven gated benches and judges each against its committed
# BENCH_<bench>.json budget. That takes several minutes, so it is opt-in;
# any extra arguments (e.g. --force) are forwarded to bench-gate.
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

# --all-targets lints tests, benches and examples too, not just the libs.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Neither the build nor clippy resolves intra-doc links, so a link to a
# deleted or renamed item would otherwise rot unnoticed.
echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> cargo bench --no-run"
cargo bench --no-run

if [[ "$BENCH_GATES" == "1" ]]; then
  echo "==> bench-gate (health, detect, obs, campaign, monitor, resilience, trace)"
  cargo run --release -p ixp-bench --bin bench-gate -- "$@"
fi

echo "==> all checks passed"
