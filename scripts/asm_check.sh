#!/usr/bin/env bash
# Codegen sanity checks for the two hot kernels: the batched SoA FFT and
# the CRC-32 folding kernel.
#
# Emits release assembly for nomloc-dsp with the host CPU's full feature
# set and verifies that the batched-kernel code actually contains packed
# double-precision multiplies / FMAs (`vmulpd` / `vfmadd*pd` on x86,
# `fmla v*.2d` on aarch64). The lockstep lane loops are written so the
# compiler autovectorizes them; this script catches a silent fallback to
# scalar code (e.g. after a refactor perturbs the loop shape).
#
# It then emits release assembly for nomloc-net (default target CPU: the
# folding kernel enables `pclmulqdq` per function) and reports whether
# carry-less multiplies (`pclmulqdq` / `vpclmulqdq`) appear in its CRC-32
# code, catching a kernel that no longer builds its folding path.
#
# Advisory: prints a warning and exits 0 when no packed ops or carry-less
# multiplies are found — codegen varies across compiler versions and build
# hosts, so this is a tripwire, not a CI gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> emitting release asm for nomloc-dsp (-C target-cpu=native)"
RUSTFLAGS="-C target-cpu=native" \
  cargo rustc --release --offline -p nomloc-dsp -- --emit asm >/dev/null 2>&1

asm="$(ls -t target/release/deps/nomloc_dsp-*.s 2>/dev/null | head -1)"
if [[ -z "$asm" ]]; then
  echo "warning: no emitted asm found under target/release/deps" >&2
  exit 0
fi
echo "    inspecting $asm"

# Pull out only the functions whose mangled names mention the batch
# module, then look for packed f64 arithmetic inside them.
packed="$(awk '
  /^[A-Za-z_][A-Za-z0-9_.$]*:/ {
    infn = ($0 ~ /[Bb]atch/)
  }
  infn && /(vfmadd[0-9]*pd|vmulpd|fmla[[:space:]]+v[0-9]+\.2d)/ { count++ }
  END { print count + 0 }
' "$asm")"

if [[ "$packed" -gt 0 ]]; then
  echo "OK: $packed packed f64 multiply/FMA instruction(s) in batched-kernel code"
else
  echo "warning: no packed f64 multiplies found in batched-kernel code —" >&2
  echo "         the lane loops may have fallen back to scalar codegen" >&2
fi

echo "==> emitting release asm for nomloc-net (default target CPU)"
cargo rustc --release --offline -p nomloc-net -- --emit asm >/dev/null 2>&1

asm="$(ls -t target/release/deps/nomloc_net-*.s 2>/dev/null | head -1)"
if [[ -z "$asm" ]]; then
  echo "warning: no emitted asm for nomloc-net under target/release/deps" >&2
  exit 0
fi
echo "    inspecting $asm"

# Carry-less multiplies inside functions of the crc32 module.
clmul="$(awk '
  /^[A-Za-z_][A-Za-z0-9_.$]*:/ {
    infn = ($0 ~ /crc32/)
  }
  infn && /v?pclmul(q|l|h)/ { count++ }
  END { print count + 0 }
' "$asm")"

if [[ "$clmul" -gt 0 ]]; then
  echo "OK: $clmul carry-less multiply instruction(s) in the CRC-32 code"
else
  echo "warning: no pclmulqdq found in nomloc-net's CRC-32 code —" >&2
  echo "         crc32() may only have its slicing-by-8 path" >&2
fi
exit 0
