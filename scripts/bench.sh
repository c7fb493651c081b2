#!/usr/bin/env bash
# Timed runs of the criterion benches that answer what the whole-system
# benchmark (`benchmark/`, gated by `benchmark compare`) cannot: the
# engine against Algorithm 1 and the engine's thread scaling (`pagerank`),
# and node order x worker count (`layout`). Runs both in quick mode
# (CRITERION_SAMPLES, default 5) and assembles their machine-readable
# BENCH_JSON lines into BENCH_pagerank.json and BENCH_layout.json at the
# repository root:
#
#   { "schema": "spammass.bench/v1", "host_threads": N,
#     "samples_per_bench": S,
#     "benches": [ {"name": ..., "threads": T, "median_ns": ..., "samples": ...}, ... ] }
#
# Bench names encode workload, thread count, and graph size
# (e.g. pagerank_scaling/fused_4t/120000). `host_threads` is the real
# parallelism of the machine that ran the benches (nproc); the per-bench
# `threads` field is what the bench *requested*, parsed from the `_Nt`
# suffix in its name (1 when unsuffixed). The two disagreeing is
# meaningful, not a bug: a `_4t` bench on a 1-core host collapses to one
# worker (see `pool_threads_4t` in BENCH_layout.json), and a reader needs
# both numbers to interpret a delta.
# Usage:
#
#   scripts/bench.sh           # quick mode, 5 samples per benchmark
#   scripts/bench.sh --full    # criterion defaults (10 samples)
set -euo pipefail
cd "$(dirname "$0")/.."

SAMPLES="${CRITERION_SAMPLES:-5}"
if [ "${1:-}" = "--full" ]; then
  SAMPLES=""
fi

LOG="$(mktemp)"
trap 'rm -f "$LOG"' EXIT

# Injects the per-bench thread count into each BENCH_JSON object: `_Nt`
# in the bench name means the bench requested N workers; everything else
# ran single-threaded.
annotate_threads() {
  sed -E \
    -e 's|^\{"name":"([^"]*_([0-9]+)t(/[^"]*)?)",(.*)\}$|{"name":"\1","threads":\2,\4}|' \
    -e '/"threads":/! s|^\{"name":"([^"]*)",(.*)\}$|{"name":"\1","threads":1,\2}|'
}

run_bench() {
  echo "== cargo bench -p spammass-bench --bench $1 =="
  CRITERION_JSON=1 CRITERION_SAMPLES="$SAMPLES" \
    cargo bench -p spammass-bench --bench "$1" 2>&1 | tee -a "$LOG"
}

run_bench pagerank

OUT="BENCH_pagerank.json"
{
  printf '{\n'
  printf '  "schema": "spammass.bench/v1",\n'
  printf '  "host_threads": %s,\n' "$(nproc)"
  printf '  "samples_per_bench": %s,\n' "${SAMPLES:-10}"
  printf '  "benches": [\n'
  grep '^BENCH_JSON ' "$LOG" | sed 's/^BENCH_JSON //' | annotate_threads | sed '$!s/$/,/' | sed 's/^/    /'
  printf '  ]\n'
  printf '}\n'
} > "$OUT"

COUNT="$(grep -c '^BENCH_JSON ' "$LOG")"
[ "$COUNT" -gt 0 ] || { echo "no BENCH_JSON lines captured"; exit 1; }
# The scaling group must land in full: the engine at 1 and 4 threads.
for key in fused_1t fused_4t; do
  grep -q "pagerank_scaling/$key" "$OUT" \
    || { echo "$OUT missing scaling bench $key"; exit 1; }
done
echo "wrote $OUT ($COUNT benchmarks)"

# Cache-aware layout: fused kernel on natural vs degree node order
# at 120k hosts, plus the zero-copy mmap load of the v3 image. The bench
# prints one BENCH_LAYOUT verification line (score agreement asserted
# inside) plus BENCH_JSON timings; both land in BENCH_layout.json.
LAYOUT_LOG="$(mktemp)"
trap 'rm -f "$LOG" "$LAYOUT_LOG"' EXIT
echo "== cargo bench -p spammass-bench --bench layout =="
CRITERION_JSON=1 CRITERION_SAMPLES="$SAMPLES" \
  cargo bench -p spammass-bench --bench layout 2>&1 | tee "$LAYOUT_LOG"

LAYOUT_OUT="BENCH_layout.json"
{
  printf '{\n'
  printf '  "schema": "spammass.bench.layout/v1",\n'
  printf '  "host_threads": %s,\n' "$(nproc)"
  printf '  "samples_per_bench": %s,\n' "${SAMPLES:-10}"
  printf '  "layout": '
  grep '^BENCH_LAYOUT ' "$LAYOUT_LOG" | head -1 | sed 's/^BENCH_LAYOUT //' | sed 's/$/,/'
  printf '  "benches": [\n'
  grep '^BENCH_JSON ' "$LAYOUT_LOG" | sed 's/^BENCH_JSON //' | annotate_threads | sed '$!s/$/,/' | sed 's/^/    /'
  printf '  ]\n'
  printf '}\n'
} > "$LAYOUT_OUT"

grep -q '^BENCH_LAYOUT ' "$LAYOUT_LOG" || { echo "no BENCH_LAYOUT line captured"; exit 1; }
echo "wrote $LAYOUT_OUT"
