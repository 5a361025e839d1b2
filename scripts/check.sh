#!/usr/bin/env bash
# Local CI gate: formatting, lints, then the tier-1 build + test pass.
# Everything runs --offline; the workspace has no network dependencies
# (rand/proptest/criterion are vendored path crates under shims/).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> rustdoc: cargo doc -D warnings (no dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> benches compile: cargo bench --no-run"
cargo bench --workspace --no-run --offline

echo "==> nomloc-net and nomloc-faults build"
cargo build --offline -p nomloc-net -p nomloc-faults

echo "==> tier-1 gate: cargo build --release && cargo test -q"
cargo build --release --offline
cargo test -q --offline

echo "==> full workspace tests"
cargo test -q --workspace --offline

echo "==> loopback serving smoke test (daemon + loadgen over 127.0.0.1)"
cargo test -q --offline --test net_loopback

echo "==> chaos smoke: fault-injected serving contract over 127.0.0.1"
cargo run --release -p nomloc-cli --bin nomloc --offline -- \
  chaos --seed 7 --requests 200

echo "==> session chaos smoke: 1% faults over 3 interleaved sessions"
# The per-session replay inside the verifier is a cross-wire detector:
# any reply carrying another session's track fails the run.
sc_out="$(cargo run --release -p nomloc-cli --bin nomloc --offline -- \
  chaos --seed 11 --requests 300 --rate 0.01 --sessions 3)"
echo "$sc_out" | grep -E "sessions:|verdict"
if ! echo "$sc_out" | grep -q "replay-verified"; then
  echo "error: sessioned chaos run did not replay-verify" >&2
  exit 1
fi

echo "==> event-loop loopback smoke: loadgen with an idle crowd"
cargo run --release -p nomloc-cli --bin nomloc --offline -- \
  loadgen --requests 200 --idle-connections 500

echo "==> multi-venue smoke: 8 venues over the admin plane, zipf traffic"
mv_out="$(cargo run --release -p nomloc-cli --bin nomloc --offline -- \
  loadgen --requests 400 --packets 2 --venues 8 --zipf 1.0)"
echo "$mv_out" | grep -E "venue batching|zipf"
# The venue-sharded batcher must never form a mixed-venue micro-batch.
if ! echo "$mv_out" | grep -q ", 0 mixed"; then
  echo "error: venue-sharded batcher produced mixed batches" >&2
  exit 1
fi
# Every request is attributed to exactly one venue: the per-venue request
# counters in the drain-time health must sum to the driven total.
mv_total="$(echo "$mv_out" | sed -n 's/^ *venue [0-9][0-9]* *req \([0-9]*\).*/\1/p' |
  awk '{s+=$1} END {print s+0}')"
if [[ "$mv_total" != "400" ]]; then
  echo "error: per-venue request counters sum to ${mv_total}, expected 400" >&2
  exit 1
fi

echo "==> contended-dispatch smoke: 8 closed-loop workers over 100 zipf venues"
cd_out="$(cargo run --release -p nomloc-cli --bin nomloc --offline -- \
  loadgen --requests 400 --packets 2 --venues 100 --zipf 1.0 --concurrency 8)"
echo "$cd_out" | grep -E "closed-loop|venue batching"
if ! echo "$cd_out" | grep -q "closed-loop: 8 workers"; then
  echo "error: closed-loop run did not report its worker pool" >&2
  exit 1
fi
# The sharded plane must keep every micro-batch venue-homogeneous even
# under contended dispatch across 101 live venues.
if ! echo "$cd_out" | grep -q ", 0 mixed"; then
  echo "error: contended dispatch produced mixed batches" >&2
  exit 1
fi
# Every driven request lands on exactly one venue counter.
cd_total="$(echo "$cd_out" | sed -n 's/^ *venue [0-9][0-9]* *req \([0-9]*\).*/\1/p' |
  awk '{s+=$1} END {print s+0}')"
if [[ "$cd_total" != "400" ]]; then
  echo "error: per-venue request counters sum to ${cd_total}, expected 400" >&2
  exit 1
fi

echo "==> serving benchmark (quick): BENCH_serving.json present and well-formed"
# Capture the committed PDP stage cost *before* the quick run overwrites
# the file — it is the baseline for the regression guard below.
committed_pdp="$(git show HEAD:BENCH_serving.json 2>/dev/null |
  sed -n 's/.*"pdp_ns_per_request"[[:space:]]*:[[:space:]]*\([0-9.]*\).*/\1/p' | head -1)"
NOMLOC_BENCH_QUICK=1 cargo run --release -p nomloc-bench --bin bench_serving_json --offline
if [[ ! -s BENCH_serving.json ]]; then
  echo "error: BENCH_serving.json missing or empty" >&2
  exit 1
fi
for key in stages fft pdp_64 pdp_batched encode end_to_end speedup decode_ns_per_request soak venues dispatch sessions; do
  if ! grep -q "\"$key\"" BENCH_serving.json; then
    echo "error: BENCH_serving.json malformed — missing key \"$key\"" >&2
    exit 1
  fi
done

echo "==> PDP stage regression guard (quick run vs committed BENCH_serving.json)"
new_pdp="$(sed -n 's/.*"pdp_ns_per_request"[[:space:]]*:[[:space:]]*\([0-9.]*\).*/\1/p' \
  BENCH_serving.json | head -1)"
if [[ -z "$committed_pdp" ]]; then
  echo "    no committed baseline (new file?) — skipping"
elif [[ -z "$new_pdp" ]]; then
  echo "error: pdp_ns_per_request missing from fresh BENCH_serving.json" >&2
  exit 1
else
  # Fail on a >25% regression; quick-mode runs are noisy, so the margin is
  # deliberately generous — a real hot-path regression blows well past it.
  awk -v new="$new_pdp" -v old="$committed_pdp" 'BEGIN {
    limit = old * 1.25
    printf "    pdp_ns_per_request: %.1f (committed %.1f, limit %.1f)\n", new, old, limit
    exit (new > limit) ? 1 : 0
  }' || {
    echo "error: PDP stage regressed >25% vs committed baseline" >&2
    exit 1
  }
fi

echo "==> dispatch regression guard (quick run vs committed BENCH_serving.json)"
# The 100-venue entry is the last element of the "dispatch" array: the
# contended regime. Sharded ns/request must not regress vs the committed
# baseline, same discipline as the PDP stage guard.
committed_disp="$(git show HEAD:BENCH_serving.json 2>/dev/null |
  sed -n 's/.*"sharded_ns_per_request"[[:space:]]*:[[:space:]]*\([0-9.]*\).*/\1/p' |
  tail -1)"
new_disp="$(sed -n 's/.*"sharded_ns_per_request"[[:space:]]*:[[:space:]]*\([0-9.]*\).*/\1/p' \
  BENCH_serving.json | tail -1)"
if [[ -z "$new_disp" ]]; then
  echo "error: dispatch section missing from fresh BENCH_serving.json" >&2
  exit 1
fi
if [[ -z "$committed_disp" ]]; then
  echo "    no committed dispatch baseline (new section?) — skipping relative gate"
else
  # Wider margin than the PDP stage guard: the contended-dispatch regime
  # (deep backlog, 8 connections racing 2 batchers) is inherently noisier
  # per quick-mode run than an in-process microbench, so this only
  # catches gross regressions of the dispatch plane.
  awk -v new="$new_disp" -v old="$committed_disp" 'BEGIN {
    limit = old * 1.5
    printf "    sharded_ns_per_request: %.1f (committed %.1f, limit %.1f)\n", new, old, limit
    exit (new > limit) ? 1 : 0
  }' || {
    echo "error: sharded dispatch regressed >50% vs committed baseline" >&2
    exit 1
  }
fi

echo "==> idle-crowd p99 guard (soak idle_p99_ratio)"
# Satellite of the dispatch PR: with bounded accept draining and O(1)
# dirty-marking, an idle herd may no longer multiply active p99 by more
# than this. Before the fix the ratio ran >3x and unbounded with crowd
# size; the gate holds the line well under the old failure mode while
# absorbing quick-mode noise.
idle_ratio="$(sed -n 's/.*"idle_p99_ratio"[[:space:]]*:[[:space:]]*\([0-9.]*\).*/\1/p' \
  BENCH_serving.json | head -1)"
if [[ -z "$idle_ratio" ]]; then
  echo "    soak skipped (no nomloc binary) — skipping ratio gate"
else
  awk -v r="$idle_ratio" 'BEGIN {
    printf "    idle_p99_ratio: %.2fx (limit 4.50x)\n", r
    exit (r > 4.5) ? 1 : 0
  }' || {
    echo "error: idle crowd inflates active p99 beyond 4.5x" >&2
    exit 1
  }
fi

echo "All checks passed."
