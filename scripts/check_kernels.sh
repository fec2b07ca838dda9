#!/usr/bin/env bash
# Kernel determinism gate (docs/kernels.md): fits fresh coefficients
# with the result cache off, so the whole transistor-level
# characterization runs through the batched transient engine and its
# memoized device kernels, then asserts that `pim evaluate` and
# `pim yield` outputs are byte-identical at --threads 1 and 4.
set -euo pipefail
cd "$(dirname "$0")/.."

# No -G: reuse whatever generator build/ was configured with.
cmake -B build >/dev/null
cmake --build build --target pim_cli >/dev/null

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

pim=./build/tools/pim
coeffs="$workdir/coeffs.pimfit"
common=(--cache off --out-dir "$workdir/out" --ledger off --log-level warn)

echo "=== pim fit (fresh, cache off) ==="
"$pim" fit 45nm --coeffs "$coeffs" --threads 4 "${common[@]}" >/dev/null
for threads in 1 4; do
  "$pim" evaluate 45nm --length 5 --coeffs "$coeffs" --threads $threads \
    "${common[@]}" > "$workdir/evaluate-$threads.txt"
  "$pim" yield 45nm --length 3 --samples 200 --coeffs "$coeffs" \
    --threads $threads "${common[@]}" > "$workdir/yield-$threads.txt"
done

echo "=== compare ==="
for cmd in evaluate yield; do
  cmp "$workdir/$cmd-1.txt" "$workdir/$cmd-4.txt" \
    || { echo "check_kernels: pim $cmd output differs (--threads 4 vs 1)"; exit 1; }
done

echo "check_kernels: OK (byte-identical at --threads 1 and 4)"
