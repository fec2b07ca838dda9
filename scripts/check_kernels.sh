#!/usr/bin/env bash
# Kernel determinism gate (docs/kernels.md): fits fresh coefficients
# with the result cache off, so the whole transistor-level
# characterization runs through the batched transient engine and its
# memoized device kernels, asserts that the fit's bytes are the pinned
# ones, then asserts that `pim evaluate` (model and golden sign-off) and
# `pim yield` outputs are byte-identical at --threads 1 and 4.
set -euo pipefail
cd "$(dirname "$0")/.."

# SHA-256 of the fresh 45 nm fit. Every kernel change must leave the fit
# bytes alone; a change that is meant to move them re-pins this value.
expected_fit_sha256=67e7d0ee3251fc34c14ffc4c2d458788b3a38cd456fc5a025b21d2b2d757c77b

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
fit_sha256=$(sha256sum "$coeffs" | cut -d' ' -f1)
[[ "$fit_sha256" == "$expected_fit_sha256" ]] \
  || { echo "check_kernels: fresh 45nm fit sha256 $fit_sha256, expected $expected_fit_sha256"; exit 1; }
for threads in 1 4; do
  "$pim" evaluate 45nm --length 5 --coeffs "$coeffs" --threads $threads \
    "${common[@]}" > "$workdir/evaluate-$threads.txt"
  "$pim" evaluate 45nm --length 5 --golden --coeffs "$coeffs" --threads $threads \
    "${common[@]}" > "$workdir/golden-$threads.txt"
  "$pim" yield 45nm --length 3 --samples 200 --coeffs "$coeffs" \
    --threads $threads "${common[@]}" > "$workdir/yield-$threads.txt"
done

echo "=== compare ==="
for cmd in evaluate golden yield; do
  cmp "$workdir/$cmd-1.txt" "$workdir/$cmd-4.txt" \
    || { echo "check_kernels: $cmd output differs (--threads 4 vs 1)"; exit 1; }
done

echo "check_kernels: OK (fit bytes pinned; byte-identical at --threads 1 and 4)"
