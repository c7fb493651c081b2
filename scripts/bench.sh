#!/usr/bin/env bash
# Comparative benchmark run for the PageRank engine and the mass
# estimation pipeline. Runs the `pagerank` and `mass_pipeline` criterion
# benches in quick mode (CRITERION_SAMPLES, default 5) and assembles the
# machine-readable BENCH_JSON lines into BENCH_pagerank.json at the
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
# worker (see `pool_threads_4t` in BENCH_layout.json), and
# `spammass bench-diff` readers need both numbers to interpret a delta.
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
run_bench mass_pipeline

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

# Incremental re-estimation: warm update vs cold full estimate on an
# evolved ~60k-host scenario (~1% edge delta). The bench prints one
# BENCH_INCR agreement/iteration line plus the usual BENCH_JSON timings;
# both land in BENCH_incremental.json.
INCR_LOG="$(mktemp)"
trap 'rm -f "$LOG" "$INCR_LOG"' EXIT
echo "== cargo bench -p spammass-bench --bench incremental =="
CRITERION_JSON=1 CRITERION_SAMPLES="$SAMPLES" \
  cargo bench -p spammass-bench --bench incremental 2>&1 | tee "$INCR_LOG"

INCR_OUT="BENCH_incremental.json"
{
  printf '{\n'
  printf '  "schema": "spammass.bench.incremental/v1",\n'
  printf '  "host_threads": %s,\n' "$(nproc)"
  printf '  "samples_per_bench": %s,\n' "${SAMPLES:-10}"
  printf '  "agreement": '
  grep '^BENCH_INCR ' "$INCR_LOG" | head -1 | sed 's/^BENCH_INCR //' | sed 's/$/,/'
  printf '  "benches": [\n'
  grep '^BENCH_JSON ' "$INCR_LOG" | sed 's/^BENCH_JSON //' | annotate_threads | sed '$!s/$/,/' | sed 's/^/    /'
  printf '  ]\n'
  printf '}\n'
} > "$INCR_OUT"

grep -q '^BENCH_INCR ' "$INCR_LOG" || { echo "no BENCH_INCR line captured"; exit 1; }
echo "wrote $INCR_OUT"

# Cache-aware layout: fused kernel on natural vs degree node order
# at 120k hosts, plus the zero-copy mmap load of the v3 image. The bench
# prints one BENCH_LAYOUT verification line (score agreement asserted
# inside) plus BENCH_JSON timings; both land in BENCH_layout.json.
LAYOUT_LOG="$(mktemp)"
trap 'rm -f "$LOG" "$INCR_LOG" "$LAYOUT_LOG"' EXIT
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

# Query daemon: client-side QPS and p50/p99 request latency at 1 and N
# client threads against a live in-process `spammass-serve` server, plus
# per-endpoint latency on a persistent keep-alive connection. The bench
# asserts response correctness (schema tags, generation, score/batch
# agreement) before timing anything; the BENCH_SERVE line and the
# BENCH_JSON timings both land in BENCH_serve.json.
SERVE_LOG="$(mktemp)"
trap 'rm -f "$LOG" "$INCR_LOG" "$LAYOUT_LOG" "$SERVE_LOG"' EXIT
echo "== cargo bench -p spammass-bench --bench serve =="
CRITERION_JSON=1 CRITERION_SAMPLES="$SAMPLES" \
  cargo bench -p spammass-bench --bench serve 2>&1 | tee "$SERVE_LOG"

SERVE_OUT="BENCH_serve.json"
{
  printf '{\n'
  printf '  "schema": "spammass.bench.serve/v1",\n'
  printf '  "host_threads": %s,\n' "$(nproc)"
  printf '  "samples_per_bench": %s,\n' "${SAMPLES:-10}"
  printf '  "serve": '
  grep '^BENCH_SERVE ' "$SERVE_LOG" | head -1 | sed 's/^BENCH_SERVE //' | sed 's/$/,/'
  printf '  "benches": [\n'
  grep '^BENCH_JSON ' "$SERVE_LOG" | sed 's/^BENCH_JSON //' | annotate_threads | sed '$!s/$/,/' | sed 's/^/    /'
  printf '  ]\n'
  printf '}\n'
} > "$SERVE_OUT"

grep -q '^BENCH_SERVE ' "$SERVE_LOG" || { echo "no BENCH_SERVE line captured"; exit 1; }
# The daemon throughput record must carry QPS and both latency
# percentiles at one client thread and at N client threads.
for key in '"qps_1t"' '"p50_ns_1t"' '"p99_ns_1t"' \
    '"qps_nt"' '"p50_ns_nt"' '"p99_ns_nt"'; do
  grep -q "$key" "$SERVE_OUT" \
    || { echo "$SERVE_OUT missing serve key $key"; exit 1; }
done
echo "wrote $SERVE_OUT"

# Million-host scale: v4 compressed edge storage vs v3, and the
# out-of-core (streamed) batched solve vs the fully resident solve on a
# degree-ordered 120k-host web. The bench asserts score parity and the
# ≤8 bits/edge encoding gate before timing anything; the BENCH_SCALE
# line and the BENCH_JSON timings both land in BENCH_scale.json.
SCALE_LOG="$(mktemp)"
trap 'rm -f "$LOG" "$INCR_LOG" "$LAYOUT_LOG" "$SERVE_LOG" "$SCALE_LOG"' EXIT
echo "== cargo bench -p spammass-bench --bench scale =="
CRITERION_JSON=1 CRITERION_SAMPLES="$SAMPLES" \
  cargo bench -p spammass-bench --bench scale 2>&1 | tee "$SCALE_LOG"

SCALE_OUT="BENCH_scale.json"
{
  printf '{\n'
  printf '  "schema": "spammass.bench.scale/v1",\n'
  printf '  "host_threads": %s,\n' "$(nproc)"
  printf '  "samples_per_bench": %s,\n' "${SAMPLES:-10}"
  printf '  "scale": '
  grep '^BENCH_SCALE ' "$SCALE_LOG" | head -1 | sed 's/^BENCH_SCALE //' | sed 's/$/,/'
  printf '  "benches": [\n'
  grep '^BENCH_JSON ' "$SCALE_LOG" | sed 's/^BENCH_JSON //' | annotate_threads | sed '$!s/$/,/' | sed 's/^/    /'
  printf '  ]\n'
  printf '}\n'
} > "$SCALE_OUT"

grep -q '^BENCH_SCALE ' "$SCALE_LOG" || { echo "no BENCH_SCALE line captured"; exit 1; }
# The scale record must carry the compression and out-of-core numbers
# the docs quote: encoded size, bits/edge, budget vs CSR, the resident
# and both streamed solve timings (one worker, default threads) with the
# streamed-over-resident ratio, and the peak RSS of the run.
for key in '"bits_per_edge"' '"compression_ratio"' '"v3_bytes"' '"v4_bytes"' \
    '"budget_bytes"' '"csr_bytes"' '"resident_solve_ms"' '"streamed_solve_ms"' \
    '"streamed_default_ms"' '"streamed_over_resident_1t"' '"peak_rss_mb"'; do
  grep -q "$key" "$SCALE_OUT" \
    || { echo "$SCALE_OUT missing scale key $key"; exit 1; }
done
echo "wrote $SCALE_OUT"
