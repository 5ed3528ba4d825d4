#!/usr/bin/env bash
# List `pub` functions and types that no other tracked `.rs` file names.
#
# For every `pub fn`, `pub struct`, `pub enum`, `pub trait` and `pub type`
# in a tracked Rust file outside vendor/, the script greps the other tracked
# Rust files (perfbench, examples, benches and tests included) for the name
# as a whole word. Items no other file names are printed as
# `file:line  kind  name`, one per line, followed by a count.
#
# It is a text heuristic, informational and not a gate: a trait method is
# reached through the trait, a name shared with another item counts as a
# use, and an item that only its own file's tests call is still listed.
# Read the definition before acting on a line.
#
# Usage: scripts/unused_pub.sh [PATHSPEC...]   (default: every tracked .rs)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
  specs=("$@")
else
  specs=('*.rs')
fi

n=0
while IFS=: read -r file line text; do
  kind=$(sed -E 's/^[[:space:]]*pub (const |unsafe |async )*(fn|struct|enum|trait|type) .*/\2/' <<<"$text")
  name=$(sed -E 's/^[[:space:]]*pub (const |unsafe |async )*(fn|struct|enum|trait|type) +([A-Za-z_][A-Za-z0-9_]*).*/\3/' <<<"$text")
  others=$(git grep -lw -e "$name" -- '*.rs' ":!vendor" ":!$file" | head -1 || true)
  if [[ -z "$others" ]]; then
    printf '%s:%s  %s  %s\n' "$file" "$line" "$kind" "$name"
    n=$((n + 1))
  fi
done < <(git grep -nE '^[[:space:]]*pub (const |unsafe |async )*(fn|struct|enum|trait|type) +[A-Za-z_]' -- "${specs[@]}" ":!vendor")

echo "$n public items named only in their own file"
