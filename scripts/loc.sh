#!/usr/bin/env bash
# Non-test line counts: every .rs file under crates/*/src and src/, cut at
# its in-file `#[cfg(test)]` module (the first `#[cfg(test)]` line followed
# by a `mod` line). Integration tests, benches and examples are not counted.
#
# Usage: scripts/loc.sh [FILE...]
#   no arguments   one line per crate (the root package is `src`), then a total
#   FILE...        one line per named file
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints the non-test line count of one file.
count() {
  awk '
    prev ~ /^#\[cfg\(test\)\]/ && $0 ~ /^(pub(\([a-z]+\))? )?mod / { n--; exit }
    { n++; prev = $0 }
    END { print n + 0 }
  ' "$1"
}

if [[ $# -gt 0 ]]; then
  for f in "$@"; do
    printf '%7d  %s\n' "$(count "$f")" "$f"
  done
  exit 0
fi

total=0
for dir in crates/*/src src; do
  sum=0
  while IFS= read -r f; do
    sum=$((sum + $(count "$f")))
  done < <(find "$dir" -name '*.rs' | sort)
  printf '%7d  %s\n' "$sum" "$dir"
  total=$((total + sum))
done
printf '%7d  total\n' "$total"
