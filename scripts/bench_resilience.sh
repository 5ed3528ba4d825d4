#!/usr/bin/env bash
# Re-run the admission-control overhead bench and gate the resilience tax.
#
# The bench (crates/bench/benches/resilience.rs) runs the same precomputed
# 1k-link, 288-round day through three arms at one thread: (a) a bare
# LinkState::push loop, (b) the same loop with every push behind
# SeqGate::admit, and (c) MonitorService::ingest_sequenced. It writes the
# median over rotating-order rounds of (b - a) / (c - (b - a)) — admission's
# share of the sequenced ingest path — to BENCH_resilience.json. The
# contract (DESIGN.md §5.18) is that in steady state — in-order telemetry,
# no overload — admission costs under 3% of that path. This wrapper
# enforces that, and prints the sequenced rate next to the recorded
# BENCH_monitor.json headline. Pass --force to accept an overhead breach
# anyway (e.g. after an intended trade-off); the cross-check against
# BENCH_monitor.json is informational only, since the two files may have
# been produced on different hosts.
set -euo pipefail
cd "$(dirname "$0")/.."

FORCE=0
if [[ "${1:-}" == "--force" ]]; then
  FORCE=1
fi

OUT=BENCH_resilience.json
OVERHEAD_CEILING_PCT=3

cargo bench -p ixp-bench --bench resilience

field() {
  awk -F"\"$1\": " "/\"$1\"/ {gsub(/[,}].*/, \"\", \$2); print \$2; exit}" "$2"
}
for arm in push_loop gated_loop sequenced; do
  echo "[bench_resilience] ${arm} rate: $(field "${arm}_samples_per_sec" "$OUT") samples/s"
done
if [[ -f BENCH_monitor.json ]]; then
  # Informational: the same synth workload as the monitor bench's 1k-link
  # headline point, but at one thread and without its live dashboard
  # readers (the headline runs threads: 0, which on a multi-core host
  # starts worker threads for every batch). Print both — a sequenced rate
  # *below* the headline would flag a real ingest regression worth a
  # bench_monitor run.
  echo "[bench_resilience] BENCH_monitor.json 1k-link headline: $(field ingest_samples_per_sec BENCH_monitor.json) samples/s"
fi

overhead=$(field overhead_pct "$OUT")
echo "[bench_resilience] admission share of sequenced ingest: ${overhead}% (ceiling ${OVERHEAD_CEILING_PCT}%)"
if awk -v o="$overhead" -v c="$OVERHEAD_CEILING_PCT" 'BEGIN { exit !(o >= c) }'; then
  if [[ "$FORCE" == "1" ]]; then
    echo "[bench_resilience] overhead breach accepted (--force)"
  else
    echo "[bench_resilience] ERROR: admission control costs >=${OVERHEAD_CEILING_PCT}% of sequenced ingest." >&2
    echo "[bench_resilience] Re-run with --force to accept an intended trade-off." >&2
    exit 1
  fi
fi

echo "[bench_resilience] baseline $OUT updated"
