#!/usr/bin/env bash
# Re-run the resident-monitor ingest bench and regression-gate the baseline.
#
# The bench itself writes BENCH_monitor.json (the 1k/10k/100k links-scaling
# curve, 288 rounds per link, dashboard readers live). This wrapper keeps
# the previous baseline and refuses to let a >10% regression of the
# headline rate — the 1k-link ingest point, the first ingest_samples_per_sec
# in the file — silently replace it, and additionally enforces the resident
# memory contract: the 100k-link steady-state RSS (the last steady_rss_mb)
# must stay below 96 MiB. Per link the service holds a 240B LinkState and a
# 56B SeqGate in its shard slab (a gate's 256B reorder buffer is allocated
# only while samples are parked; it used to sit inline in every gate, 304B
# in all), a 112B verdict in the index, and 160B of reused batch buffers
# (a 120B verdict-buffer entry and a 40B partition entry): about 570B, and
# 63.7 MiB steady at 100k links where the inline buffers read 76.2 MiB.
# The ceiling is headroom over that — still O(links), and the batch
# campaign peaks at ~85 MiB on the same substrate size. Pass
# --force to accept a regression anyway (e.g. after an intended trade-off
# or on a different host); the RSS ceiling is a hard contract and is not
# forceable.
set -euo pipefail
cd "$(dirname "$0")/.."

FORCE=0
if [[ "${1:-}" == "--force" ]]; then
  FORCE=1
fi

BASELINE=BENCH_monitor.json
RSS_CEILING_MB=96
BACKUP=
if [[ -f "$BASELINE" ]]; then
  BACKUP=$(mktemp)
  cp "$BASELINE" "$BACKUP"
fi

cargo bench -p ixp-bench --bench monitor

# The resident service must hold O(links) state only: gate the 100k-link
# steady RSS (the last steady_rss_mb in the file) against the ceiling.
rss=$(awk -F'"steady_rss_mb": ' '/"steady_rss_mb"/ {gsub(/[,}].*/, "", $2); v=$2} END {print v}' "$BASELINE")
echo "[bench_monitor] steady RSS (100k-link point): ${rss} MiB (ceiling ${RSS_CEILING_MB} MiB)"
if awk -v r="$rss" -v c="$RSS_CEILING_MB" 'BEGIN { exit !(r >= c) }'; then
  if [[ -n "$BACKUP" ]]; then
    cp "$BACKUP" "$BASELINE"
    rm -f "$BACKUP"
  fi
  echo "[bench_monitor] ERROR: resident RSS broke the O(links) memory contract." >&2
  exit 1
fi

if [[ -n "$BACKUP" ]]; then
  # First ingest_samples_per_sec in the file is the headline (1k-link) rate.
  old=$(awk -F'"ingest_samples_per_sec": ' '/"ingest_samples_per_sec"/ {gsub(/[,}].*/, "", $2); print $2; exit}' "$BACKUP")
  new=$(awk -F'"ingest_samples_per_sec": ' '/"ingest_samples_per_sec"/ {gsub(/[,}].*/, "", $2); print $2; exit}' "$BASELINE")
  echo "[bench_monitor] ingest samples/sec (1k-link point): previous $old, new $new"
  if awk -v o="$old" -v n="$new" 'BEGIN { exit !(n < 0.9 * o) }'; then
    if [[ "$FORCE" == "1" ]]; then
      echo "[bench_monitor] >10% regression accepted (--force)"
    else
      cp "$BACKUP" "$BASELINE"
      rm -f "$BACKUP"
      echo "[bench_monitor] ERROR: new rate is >10% below the recorded baseline." >&2
      echo "[bench_monitor] Baseline restored; re-run with --force to accept." >&2
      exit 1
    fi
  fi
  rm -f "$BACKUP"
fi

echo "[bench_monitor] baseline $BASELINE updated"
