#!/usr/bin/env bash
# Lines added, removed and net between BASE (default HEAD~1) and the working
# tree, from `git diff --numstat`, grouped by what the files are:
#
#   library           src/, crates/*/src/
#   tests             tests/, crates/*/tests/
#   benches/examples  benches/, examples/, crates/*/benches/, crates/*/examples/
#   docs              *.md
#   other             everything else (scripts, manifests, bench records)
#
# Binary files count zero lines. Usage: scripts/line_delta.sh [BASE]
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:-HEAD~1}"
git diff --numstat "$base" -- . | awk -F'\t' '
  function group(path) {
    if (path ~ /\.md$/) return "docs"
    if (path ~ /^(crates\/[^\/]+\/)?src\//) return "library"
    if (path ~ /^(crates\/[^\/]+\/)?tests\//) return "tests"
    if (path ~ /^(crates\/[^\/]+\/)?(benches|examples)\//) return "benches/examples"
    return "other"
  }
  {
    g = group($3)
    add[g] += ($1 == "-" ? 0 : $1)
    del[g] += ($2 == "-" ? 0 : $2)
  }
  END {
    n = split("library tests benches/examples docs other", order, " ")
    printf "%-17s %8s %8s %8s\n", "group", "added", "removed", "net"
    for (i = 1; i <= n; i++) {
      g = order[i]
      printf "%-17s %8d %8d %+8d\n", g, add[g], del[g], add[g] - del[g]
      ta += add[g]; td += del[g]
    }
    printf "%-17s %8d %8d %+8d\n", "total", ta, td, ta - td
  }'
