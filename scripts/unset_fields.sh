#!/usr/bin/env bash
# List `pub` fields of `*Config` structs that nothing sets.
#
# For every `pub struct <Name>Config` in a tracked Rust file outside
# vendor/, the script reads its `pub` fields and looks through every
# tracked Rust file (perfbench, examples, benches and tests included) for
# a place that sets one:
#
#   - a struct literal `<Name>Config { field: value, .. }` or the shorthand
#     `<Name>Config { field, .. }`, unless the literal sits in an
#     `impl Default for <Name>Config` block or on a `const` line (the
#     struct's own defaults do not count as a use);
#   - an assignment `.field = value` (or `+=` and friends) to any value,
#     where `.field.sub = value` counts for `field` too, so a field name
#     shared with another struct counts for both;
#   - a mutating method call on the field, `.field.push(`, `.extend(`,
#     `.insert(`, `.retain(` or `.clear(`, which sets a collection field.
#
# Fields nothing sets are printed as `file:line  Struct.field`, one per
# line, followed by a count. Such a field holds one value in every run: a
# constant spelled as a setting.
#
# It is a text heuristic, informational and not a gate: a field set through
# a destructuring pattern or a macro is missed, and one set only by another
# struct's same-named field is not listed. Read the uses before acting on
# a line.
#
# Usage: scripts/unset_fields.sh [PATHSPEC...]   (default: every tracked .rs)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
  specs=("$@")
else
  specs=('*.rs')
fi

mapfile -d '' files < <(git ls-files -z -- "${specs[@]}" ":!vendor")
awk '
  # Set every field named inside the literal whose body starts at `i`.
  function literal_fields(buf, i, name,    n, depth, pd, expect, c, j, id, k) {
    n = length(buf); depth = 1; pd = 0; expect = 1
    while (i <= n && depth > 0) {
      c = substr(buf, i, 1)
      if (c == "/" && substr(buf, i + 1, 1) == "/") {
        while (i <= n && substr(buf, i, 1) != "\n") i++
        continue
      }
      if (c == "\"") {
        i++
        while (i <= n && substr(buf, i, 1) != "\"") i += (substr(buf, i, 1) == "\\") ? 2 : 1
      } else if (c == "{") depth++
      else if (c == "}") depth--
      else if (c == "(" || c == "[") pd++
      else if (c == ")" || c == "]") pd--
      else if (depth == 1 && pd == 0) {
        if (c == ",") expect = 1
        else if (expect && c ~ /[a-z_]/) {
          j = i
          while (j <= n && substr(buf, j, 1) ~ /[a-z0-9_]/) j++
          id = substr(buf, i, j - i)
          k = j
          while (k <= n && substr(buf, k, 1) ~ /[ \t\n]/) k++
          c = substr(buf, k, 1)
          if ((c == ":" && substr(buf, k + 1, 1) != ":") || c == "," || c == "}") set[name SUBSEP id] = 1
          expect = 0
          i = j
          continue
        } else if (c !~ /[ \t\n]/) expect = 0
      }
      i++
    }
  }

  # End of the brace block that opens at or after `i`.
  function block_end(buf, i,    n, depth, c) {
    n = length(buf); depth = 0
    while (i <= n) {
      c = substr(buf, i, 1)
      if (c == "{") depth++
      else if (c == "}" && --depth == 0) return i
      i++
    }
    return n
  }

  function scan(buf,    rest, off, at, name, pre, nl, d, dn, own) {
    # Ranges of `impl Default for *Config` blocks.
    dn = 0; rest = buf; off = 0
    while (match(rest, /impl Default for [A-Za-z0-9_]*Config/)) {
      at = off + RSTART
      dn++
      dname[dn] = substr(rest, RSTART + 17, RLENGTH - 17)
      dlo[dn] = at
      dhi[dn] = block_end(buf, at)
      off += RSTART + RLENGTH - 1
      rest = substr(rest, RSTART + RLENGTH)
    }
    rest = buf; off = 0
    while (match(rest, /[A-Za-z0-9_]*Config[ \t\n]*\{/)) {
      at = off + RSTART
      name = substr(rest, RSTART, RLENGTH)
      sub(/[ \t\n]*\{$/, "", name)
      off += RSTART + RLENGTH - 1
      rest = substr(rest, RSTART + RLENGTH)
      pre = substr(buf, 1, at - 1)
      nl = match(pre, /[^\n]*$/)
      pre = substr(pre, nl)
      if (pre ~ /(struct|enum|impl|for|->)[ \t]*$/ || pre ~ /const /) continue
      own = 0
      for (d = 1; d <= dn; d++)
        if (dname[d] == name && at > dlo[d] && at < dhi[d]) own = 1
      if (!own) literal_fields(buf, off + 1, name)
    }
  }

  FNR == 1 && NR > 1 { scan(buf); buf = "" }
  {
    buf = buf $0 "\n"
    if (match($0, /^pub struct [A-Za-z0-9_]*Config[ \t]*\{/)) {
      cur = $0
      sub(/^pub struct /, "", cur)
      sub(/[ \t]*\{.*$/, "", cur)
      next
    }
    if (cur != "") {
      if ($0 ~ /^\}/) { cur = ""; next }
      if (match($0, /^[ \t]*pub [a-z_][a-z0-9_]*:/)) {
        f = substr($0, RSTART, RLENGTH)
        sub(/^[ \t]*pub /, "", f)
        sub(/:$/, "", f)
        nf++
        fs[nf] = cur; ff[nf] = f; fl[nf] = FILENAME ":" FNR
      }
      next
    }
    # `a.b.c = v` sets `c` and, in part, `b`.
    line = $0
    while (match(line, /(\.[a-z_][a-z0-9_]*)+[ \t]*[-+*\/|&^]?=/)) {
      after = substr(line, RSTART + RLENGTH, 1)
      f = substr(line, RSTART + 1, RLENGTH - 1)
      sub(/[ \t]*[-+*\/|&^]?=$/, "", f)
      if (after != "=") {
        m = split(f, path, ".")
        for (k = 1; k <= m; k++) assigned[path[k]] = 1
      }
      line = substr(line, RSTART + RLENGTH)
    }
    # `a.field.push(v)` and the other mutating calls set `field`.
    line = $0
    while (match(line, /\.[a-z_][a-z0-9_]*\.(push|extend|insert|retain|clear)\(/)) {
      f = substr(line, RSTART + 1, RLENGTH - 1)
      sub(/\..*$/, "", f)
      assigned[f] = 1
      line = substr(line, RSTART + RLENGTH)
    }
  }
  END {
    scan(buf)
    n = 0
    for (i = 1; i <= nf; i++) {
      if ((fs[i] SUBSEP ff[i]) in set || ff[i] in assigned) continue
      printf "%s  %s.%s\n", fl[i], fs[i], ff[i]
      n++
    }
    printf "%d config fields set only by their own defaults\n", n
  }
' "${files[@]}"
