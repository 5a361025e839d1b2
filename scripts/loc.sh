#!/usr/bin/env bash
# Non-test line counts: every .rs file under crates/*/src and src/, cut at
# its in-file `#[cfg(test)]` module (the first `#[cfg(test)]` line followed
# by a `mod name {` line). Any other top-level `#[cfg(test)]` item (the
# attribute in column 0, then an `impl`, `fn`, `struct`, …) is skipped
# through its closing `}` in column 0, or its one line when that ends in
# `;`. A file declared as `#[cfg(test)] mod name;` (the
# attribute line, then the declaration) is test code as a whole and counts
# 0, as does every file below its module directory. Integration tests,
# benches and examples are not counted.
#
# Usage: scripts/loc.sh [FILE...]
#   no arguments   one line per crate (the root package is `src`), then a total
#   FILE...        one line per named file
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints the module names a file declares as `#[cfg(test)] mod name;`.
test_mods() {
  awk '
    prev ~ /^[ \t]*#\[cfg\(test\)\]/ && $0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
      name = $0
      sub(/^[ \t]*(pub(\([a-z]+\))? )?mod /, "", name)
      sub(/;.*/, "", name)
      print name
    }
    { prev = $0 }
  ' "$1"
}

# Test-only module paths, one per line, without the `.rs`: `dir/name` stands
# for `dir/name.rs`, `dir/name/mod.rs` and everything under `dir/name/`.
test_only=()
while IFS= read -r f; do
  case "$f" in
    */lib.rs | */main.rs | */mod.rs) dir="$(dirname "$f")" ;;
    *) dir="${f%.rs}" ;;
  esac
  while IFS= read -r m; do
    test_only+=("$dir/$m")
  done < <(test_mods "$f")
done < <(find crates/*/src src -name '*.rs' | sort)

# Prints the non-test line count of one file.
count() {
  local f="${1#./}" t
  for t in ${test_only[@]+"${test_only[@]}"}; do
    if [[ "$f" == "$t.rs" || "$f" == "$t/"* ]]; then
      echo 0
      return
    fi
  done
  awk '
    skip { if ($0 ~ /^}/) skip = 0; prev = $0; next }
    prev ~ /^#\[cfg\(test\)\]/ && $0 ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/ { n--; exit }
    prev ~ /^#\[cfg\(test\)\]/ { n--; if ($0 !~ /;[ \t]*$/) skip = 1; prev = $0; next }
    { n++; prev = $0 }
    END { print n + 0 }
  ' "$f"
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
