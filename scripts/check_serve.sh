#!/usr/bin/env bash
# End-to-end serving check (docs/serving.md): boots the real pimd on a
# Unix socket against a scratch cache directory, runs a mixed request
# stream (techfile + a heterogeneous batch + a repeat evaluate) cold and
# then warm through the `pim serve` client, and requires
#   - warm daemon responses byte-identical to the same lines executed
#     in-process (`pim serve --local`) against the same cache, at
#     --threads 1 and --threads 4 — the codec-sharing contract,
#   - the daemon's stats to report the expected cache-hit growth across
#     the warm pass (the process-resident memos plus the store),
#   - a graceful SIGTERM drain: exit 0 and the socket file unlinked.
# First run characterizes 65nm (about a minute); later runs reuse
# nothing — the cache directory is scratch by design, so the cold pass
# stays cold.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja >/dev/null
cmake --build build --target pimd pim_cli >/dev/null

workdir=$(mktemp -d)
pimd_pid=""
cleanup() {
  [[ -n "$pimd_pid" ]] && kill "$pimd_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

cache="$workdir/cache"
sock="$workdir/pimd.sock"
pim=build/tools/pim

requests="$workdir/requests.jsonl"
cat > "$requests" <<'EOF'
{"op":"techfile","id":1,"tech":"65nm"}
{"op":"batch","id":2,"items":[{"op":"evaluate","link":{"tech":"65nm","length_mm":3.0}},{"op":"buffer","link":{"tech":"65nm","length_mm":5.0}},{"op":"yield","link":{"tech":"65nm","length_mm":5.0},"samples":400,"seed":2026}]}
{"op":"evaluate","id":3,"link":{"tech":"65nm","length_mm":3.0}}
EOF

echo "=== pimd: boot (scratch cache) ==="
build/tools/pimd --socket "$sock" --workers 1 --cache rw --cache-dir "$cache" \
  > "$workdir/pimd.stdout" 2> "$workdir/pimd.stderr" &
pimd_pid=$!
for _ in $(seq 100); do
  [[ -S "$sock" ]] && break
  if ! kill -0 "$pimd_pid" 2>/dev/null; then
    cat "$workdir/pimd.stderr" >&2
    echo "check_serve: pimd died during startup" >&2
    exit 1
  fi
  sleep 0.1
done
[[ -S "$sock" ]] || { echo "check_serve: pimd socket never appeared" >&2; exit 1; }

stats() { echo '{"op":"stats"}' | "$pim" serve --socket "$sock"; }
hits() { stats | jq '.result.cache.store_hits + .result.cache.resident_hits'; }

echo "=== cold pass (characterizes 65nm, populates the cache) ==="
"$pim" serve --socket "$sock" < "$requests" > "$workdir/cold.out"
hits_cold=$(hits)

echo "=== warm pass ==="
"$pim" serve --socket "$sock" < "$requests" > "$workdir/warm.out"
hits_warm=$(hits)

# Every flow in the warm stream must come back from a cache tier. A
# batch's counters are the sum over its items, so the warm pass grows by
# 11: the batch resolves its one fit up front (1), then evaluate takes
# the resident fit and model (2), buffer and yield each those two plus
# their stored result (3 + 3), and the repeat evaluate adds 2 more. The
# exact growth is pinned — a silently colder (or hotter) warm pass is a
# caching regression, not noise.
expected_hit_growth=11
hit_growth=$((hits_warm - hits_cold))
echo "cache hits: cold $hits_cold, warm $hits_warm (+$hit_growth)"
if [[ "$hit_growth" -ne "$expected_hit_growth" ]]; then
  echo "check_serve: warm pass grew $hit_growth cache hits, expected $expected_hit_growth" >&2
  exit 1
fi

echo "=== byte-identity: warm daemon vs in-process, --threads 1 and 4 ==="
for threads in 1 4; do
  "$pim" serve --local --cache rw --cache-dir "$cache" --threads "$threads" \
    < "$requests" > "$workdir/local$threads.out"
  if ! cmp -s "$workdir/warm.out" "$workdir/local$threads.out"; then
    echo "check_serve: warm daemon responses differ from --local --threads $threads" >&2
    diff "$workdir/warm.out" "$workdir/local$threads.out" | head >&2 || true
    exit 1
  fi
done
echo "byte-identical"

echo "=== graceful drain (SIGTERM) ==="
kill -TERM "$pimd_pid"
drain_rc=0
wait "$pimd_pid" || drain_rc=$?
pimd_pid=""
if [[ "$drain_rc" -ne 0 ]]; then
  cat "$workdir/pimd.stderr" >&2
  echo "check_serve: pimd exited $drain_rc on SIGTERM" >&2
  exit 1
fi
if [[ -e "$sock" ]]; then
  echo "check_serve: pimd left its socket file behind" >&2
  exit 1
fi

echo "check_serve: OK"
