#!/usr/bin/env bash
# Full local CI gate: build, tests, formatting, lints.
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test --workspace -q =="
cargo test --workspace -q

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== bench smoke: every kept bench, one iteration each =="
# One iteration per benchmark catches bench-target bitrot without the
# cost of a timed run (scripts/bench.sh does the real measurements). The
# layout bench asserts degree-ordered score agreement and zero-copy mmap
# loading before timing anything, and its BENCH_LAYOUT line must carry
# every key BENCH_layout.json promises.
BENCH_SMOKE="$(mktemp)"
LAYOUT_HOSTS=20000 cargo bench -p spammass-bench --benches -- --test | tee "$BENCH_SMOKE"
for key in '"natural_ms"' '"degree_ms"' '"best_speedup_pct"' \
    '"fused_1t_ms"' '"fused_4t_ms"' '"pool_threads_4t"' \
    '"mmap_load_ms"' '"zero_copy": true'; do
  grep '^BENCH_LAYOUT ' "$BENCH_SMOKE" | grep -q "$key" \
    || { echo "BENCH_LAYOUT line missing $key"; rm -f "$BENCH_SMOKE"; exit 1; }
done
rm -f "$BENCH_SMOKE"
# The checked-in ledgers: the engine's 1- and 4-thread scaling rows and
# the layout record.
for key in 'pagerank_scaling/fused_1t' 'pagerank_scaling/fused_4t'; do
  grep -q "$key" BENCH_pagerank.json || { echo "BENCH_pagerank.json missing $key"; exit 1; }
done
grep -q '"layout": {' BENCH_layout.json || { echo "BENCH_layout.json has no layout record"; exit 1; }

echo "== unsafe hygiene: every unsafe block in mmap/storage carries a SAFETY comment =="
# The zero-copy loader is the only part of the workspace allowed to use
# `unsafe`; each block must justify itself inline.
for f in crates/graph/src/mmap.rs crates/graph/src/storage.rs; do
  [ -f "$f" ] || continue
  unsafe_count="$(grep -c 'unsafe ' "$f" || true)"
  safety_count="$(grep -c '// SAFETY:' "$f" || true)"
  [ "$safety_count" -ge 1 ] || { echo "$f: no SAFETY comments"; exit 1; }
  [ "$unsafe_count" -le "$((safety_count * 2))" ] \
    || { echo "$f: $unsafe_count unsafe sites but only $safety_count SAFETY comments"; exit 1; }
done

echo "== one solve route: nothing in production names a reference solver =="
# Algorithm 1, Gauss-Seidel and power iteration are the paper's text and
# the engine's oracles. By name they may appear in their own module, in
# the Section 2.2 experiment, in benches and in test code (tests/
# directories and everything from a file's #[cfg(test)] line on) -
# nowhere else.
LEAKS="$(find crates src examples -name '*.rs' \
    ! -path 'crates/pagerank/src/reference/*' \
    ! -path 'crates/eval/src/experiments/convergence.rs' ! -path 'crates/bench/*' \
    ! -path '*/tests/*' -exec awk '/^#\[cfg\(test\)\]/ { nextfile }
      /reference::|solve_jacobi|solve_gauss_seidel|solve_power/ { print FILENAME ":" FNR ": " $0 }' {} +)"
[ -z "$LEAKS" ] || { echo "reference solvers named outside their allowed homes:"; echo "$LEAKS"; exit 1; }

echo "== jumps are specs: a dense jump vector only where one is needed =="
# The engine reads each column's jump through its spec (JumpVector::spec:
# a constant, a bitset or, for a custom jump, a dense vector). A dense
# n-long copy (`materialize(`) may be built in jump.rs itself, by the
# reference solvers, by update.rs's warm-start seeding and in test code -
# nowhere else.
DENSE="$(find crates src examples -name '*.rs' \
    ! -path 'crates/pagerank/src/jump.rs' ! -path 'crates/pagerank/src/reference/*' \
    ! -path 'crates/core/src/update.rs' \
    ! -path '*/tests/*' -exec awk '/^#\[cfg\(test\)\]/ { nextfile }
      /materialize\(/ { print FILENAME ":" FNR ": " $0 }' {} +)"
[ -z "$DENSE" ] || { echo "dense jump vectors built outside their allowed homes:"; echo "$DENSE"; exit 1; }

echo "== whole-system benchmark: builds and its own tests pass =="
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== telemetry: obs crate tests =="
cargo test -q -p spammass-obs

echo "== telemetry: run-report smoke test =="
# The root facade package has no binary; build the CLI bin explicitly.
cargo build --release -q -p spammass-cli
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
./target/release/spammass generate --hosts 2000 --seed 7 \
  --out "$SMOKE_DIR/web.graph" --core "$SMOKE_DIR/core.txt" > /dev/null
./target/release/spammass estimate --graph "$SMOKE_DIR/web.graph" \
  --core "$SMOKE_DIR/core.txt" --trace json \
  --metrics-out "$SMOKE_DIR/metrics.json" > "$SMOKE_DIR/estimate.out"
grep -q '"event":"span_end"' "$SMOKE_DIR/estimate.out" \
  || { echo "no span events in --trace json output"; exit 1; }
# The collector's log renders the timing tree: `--trace pretty` appends
# it to the report (the root span, its solve nested one level down), and
# `experiments --trace` prints it to stderr when the run ends.
./target/release/spammass estimate --graph "$SMOKE_DIR/web.graph" \
  --core "$SMOKE_DIR/core.txt" --trace pretty > "$SMOKE_DIR/estimate.pretty"
grep -q '^estimate [0-9.]*[mun]*s' "$SMOKE_DIR/estimate.pretty" \
  && grep -q '^  pagerank_batch ' "$SMOKE_DIR/estimate.pretty" \
  || { echo "no span tree in --trace pretty output"; exit 1; }
cargo build --release -q -p spammass-eval --bin experiments
./target/release/experiments --hosts 2000 --trace table1 > /dev/null 2> "$SMOKE_DIR/experiments.err"
grep -q '^eval\.experiment\.table1 ' "$SMOKE_DIR/experiments.err" \
  || { echo "experiments --trace printed no eval.experiment. span"; exit 1; }
for key in '"schema":"spammass.run_report/v1"' '"command":"estimate"' \
    '"params"' '"stages"' '"metrics"' '"events"' '"results"' \
    '"graph.ingest.edges"' '"pagerank.residual"' '"estimate.relative_mass"'; do
  grep -q "$key" "$SMOKE_DIR/metrics.json" \
    || { echo "run report missing $key"; exit 1; }
done

echo "== re-keyed image smoke: convert --order degree keeps detect's verdicts =="
# The node order belongs to the image: convert renumbers it once and
# re-keys the core and labels beside it, and detect on the re-keyed
# triple must flag the same host names as on the originals.
./target/release/spammass generate --hosts 3000 --seed 5 --out "$SMOKE_DIR/rk.graph" \
  --labels "$SMOKE_DIR/rk-hosts.txt" --core "$SMOKE_DIR/rk-core.txt" > /dev/null
./target/release/spammass convert --in "$SMOKE_DIR/rk.graph" --out "$SMOKE_DIR/rk.v3" \
  --order degree --core "$SMOKE_DIR/rk-core.txt" --labels "$SMOKE_DIR/rk-hosts.txt" > /dev/null
candidates() {
  ./target/release/spammass detect --graph "$1" --core "$2" --labels "$3" \
    | awk 'listing { print $NF } / candidate$/ { listing = 1 }' | sort
}
candidates "$SMOKE_DIR/rk.graph" "$SMOKE_DIR/rk-core.txt" "$SMOKE_DIR/rk-hosts.txt" \
  > "$SMOKE_DIR/rk-natural.flags"
candidates "$SMOKE_DIR/rk.v3" "$SMOKE_DIR/rk.v3.core.txt" "$SMOKE_DIR/rk.v3.labels.txt" \
  > "$SMOKE_DIR/rk-degree.flags"
[ -s "$SMOKE_DIR/rk-natural.flags" ] || { echo "detect flagged nothing on the farm web"; exit 1; }
diff "$SMOKE_DIR/rk-natural.flags" "$SMOKE_DIR/rk-degree.flags" \
  || { echo "detect on the re-keyed image flags different hosts"; exit 1; }

echo "== CSR build smoke: edge order and repeats do not reach the image =="
# The builder sorts each list and collapses repeats itself, so a text
# edge list and a shuffled copy with every line doubled (self-loops and
# repeats included) must convert to the same v3 bytes.
awk 'BEGIN { srand(7); for (i = 0; i < 20000; i++) print int(rand() * 3000), int(rand() * 3000) }' \
  > "$SMOKE_DIR/order.txt"
awk '{ print; print }' "$SMOKE_DIR/order.txt" | shuf > "$SMOKE_DIR/order-shuffled.txt"
for f in order order-shuffled; do
  ./target/release/spammass convert --in "$SMOKE_DIR/$f.txt" --format v3 \
    --out "$SMOKE_DIR/$f.v3" > /dev/null
done
cmp "$SMOKE_DIR/order.v3" "$SMOKE_DIR/order-shuffled.v3" \
  || { echo "shuffled, doubled edge list converts to a different v3 image"; exit 1; }

echo "== incremental pipeline smoke: generate --evolve / estimate --state / update =="
./target/release/spammass generate --hosts 5000 --seed 11 \
  --out "$SMOKE_DIR/evo.graph" --core "$SMOKE_DIR/evo-core.txt" \
  --evolve 2 --journal "$SMOKE_DIR/evo.journal" > "$SMOKE_DIR/generate.out"
grep -q 'evolution journal written' "$SMOKE_DIR/generate.out" \
  || { echo "generate --evolve wrote no journal"; exit 1; }
./target/release/spammass estimate --graph "$SMOKE_DIR/evo.graph" \
  --core "$SMOKE_DIR/evo-core.txt" --state "$SMOKE_DIR/state" > /dev/null
./target/release/spammass update --journal "$SMOKE_DIR/evo.journal" \
  --state "$SMOKE_DIR/state" > "$SMOKE_DIR/update.out"
for key in 'delta applied' 'warm solve' 'newly flagged' 'newly cleared' \
    'top mass shifts' 'state saved'; do
  grep -q "$key" "$SMOKE_DIR/update.out" \
    || { echo "update report missing '$key'"; cat "$SMOKE_DIR/update.out"; exit 1; }
done

# same_verdicts LABEL A B: two `estimate --out` TSVs of one graph agree
# to rounding — no flag flips (scaled p >= 10 and relative mass >= 0.98)
# and every score within 1e-9 (the columns print p * n / (1 - c); they
# must agree within 1e-9 * n). Columns 3-5 are scores scaled by n;
# relative mass (6) is a ratio printed to six decimals, so one
# last-digit flip is all it can show.
same_verdicts() {
  paste "$2" "$3" | awk -F'\t' -v label="$1" '
    /^#/ { next }
    { n++
      for (c = 3; c <= 6; c++) { d = $c - $(c + 6); if (d < 0) d = -d; if (d > m[c]) m[c] = d }
      if (($3 >= 10 && $6 >= 0.98) != ($9 >= 10 && $12 >= 0.98)) flips++ }
    END {
      bad = flips > 0 || m[6] > 1.5e-6
      for (c = 3; c <= 5; c++) if (m[c] > 1e-9 * n) bad = 1
      printf "%s: %d flag flips, max |d| %g %g %g %g\n", label, flips, m[3], m[4], m[5], m[6]
      exit bad }'
}

echo "== out-of-core pipeline smoke: stream 1M hosts -> v4 -> budgeted estimate =="
# Million-host scale end to end through the real binary: stream a
# 1M-host scenario to edge shards (never materializing the graph in
# RAM), convert to a compressed v4 image via the external-memory
# transpose, and estimate under a 64 MiB resident budget — smaller than
# the ~92 MiB raw CSR the in-memory solve carries. On one worker the
# streamed solve replicates the single-worker summation order, so the
# per-node TSV (scores, mass) must be byte-identical to the fully
# in-memory run on the same image. At the default thread count each
# worker reads the rows it relaxed earlier in a sweep fresh, so scores
# move by rounding: the flagged column (scaled p >= 10, relative mass
# >= 0.98) must be identical and every score within 1e-9 (the columns
# print p * n / (1 - c); they must agree within 1e-9 * n). The in-place
# sweep reaches 1e-12 in about 55 sweeps on this web, against Jacobi's
# 125: more than 80 fails.
./target/release/spammass generate --stream "$SMOKE_DIR/stream" \
  --hosts 1000000 --seed 17 > "$SMOKE_DIR/stream.out"
grep -q 'streamed 1000000 hosts' "$SMOKE_DIR/stream.out" \
  || { echo "generate --stream failed"; cat "$SMOKE_DIR/stream.out"; exit 1; }
./target/release/spammass convert --in "$SMOKE_DIR/stream" --format v4 \
  --out "$SMOKE_DIR/stream.v4" > "$SMOKE_DIR/convert.out"
grep -q 'bits/edge' "$SMOKE_DIR/convert.out" \
  || { echo "convert reported no bits/edge"; cat "$SMOKE_DIR/convert.out"; exit 1; }
# The same web renumbered into degree order must still encode at no more
# than 8 bits/edge over both orientations (6.6 at seed 17; 4.8 in the
# natural order above).
./target/release/spammass convert --in "$SMOKE_DIR/stream.v4" --order degree --format v4 \
  --out "$SMOKE_DIR/stream-degree.v4" > "$SMOKE_DIR/convert-degree.out"
BITS="$(sed -n 's/.*(\([0-9.]*\) bits\/edge.*/\1/p' "$SMOKE_DIR/convert-degree.out")"
[ -n "$BITS" ] && awk -v bits="$BITS" 'BEGIN { exit !(bits <= 8) }' \
  || { echo "the degree-ordered v4 image costs ${BITS:-no} bits/edge (gate 8)"; \
       cat "$SMOKE_DIR/convert-degree.out"; exit 1; }
rm -f "$SMOKE_DIR/stream-degree.v4"
./target/release/spammass estimate --graph "$SMOKE_DIR/stream.v4" \
  --core "$SMOKE_DIR/stream/core.txt" --threads 1 --max-resident-mb 64 \
  --out "$SMOKE_DIR/stream-ooc.tsv" > "$SMOKE_DIR/ooc.out" 2>&1
grep -q 'streamed solve:' "$SMOKE_DIR/ooc.out" \
  || { echo "estimate --max-resident-mb did not stream"; cat "$SMOKE_DIR/ooc.out"; exit 1; }
./target/release/spammass estimate --graph "$SMOKE_DIR/stream.v4" \
  --core "$SMOKE_DIR/stream/core.txt" --threads 1 \
  --out "$SMOKE_DIR/stream-mem.tsv" > /dev/null
diff -q "$SMOKE_DIR/stream-ooc.tsv" "$SMOKE_DIR/stream-mem.tsv" \
  || { echo "out-of-core flagged set/scores diverge from the in-memory run"; exit 1; }
./target/release/spammass estimate --graph "$SMOKE_DIR/stream.v4" \
  --core "$SMOKE_DIR/stream/core.txt" --max-resident-mb 64 \
  --out "$SMOKE_DIR/stream-ooc-pool.tsv" > "$SMOKE_DIR/ooc-pool.out" 2>&1
grep -q 'streamed solve:.* on [0-9]* worker' "$SMOKE_DIR/ooc-pool.out" \
  || { echo "pooled estimate --max-resident-mb did not name its workers"; cat "$SMOKE_DIR/ooc-pool.out"; exit 1; }
same_verdicts "worker count" "$SMOKE_DIR/stream-ooc-pool.tsv" "$SMOKE_DIR/stream-ooc.tsv" \
  || { echo "streamed verdicts or scores depend on the worker count"; exit 1; }
for out in ooc ooc-pool; do
  SWEEPS="$(sed -n 's/^pagerank solve: .* \([0-9]*\) iterations.*/\1/p' "$SMOKE_DIR/$out.out")"
  [ -n "$SWEEPS" ] && [ "$SWEEPS" -le 80 ] \
    || { echo "$out: the 1M-host solve took ${SWEEPS:-no} sweeps (gate 80)"; exit 1; }
done
rm -rf "$SMOKE_DIR/stream" "$SMOKE_DIR/stream.v4" "$SMOKE_DIR/stream-ooc.tsv" \
  "$SMOKE_DIR/stream-ooc-pool.tsv" "$SMOKE_DIR/stream-mem.tsv"

echo "== row kinds smoke: scenario web, streamed = resident (bytes on one worker) =="
# The stream web sends under 1 % of its edges into rows without
# out-links, so the smoke above barely runs the finish round that relaxes
# those rows once after the last sweep. The paper-shaped scenario web
# sends about a third of them there (and has many rows without in-links,
# written once before the first sweep): on one worker the streamed and
# the in-memory solve must still print the same bytes.
./target/release/spammass generate --hosts 20000 --seed 23 \
  --out "$SMOKE_DIR/kinds.graph" --core "$SMOKE_DIR/kinds-core.txt" > /dev/null
./target/release/spammass convert --in "$SMOKE_DIR/kinds.graph" --format v4 \
  --block-rows 4096 --out "$SMOKE_DIR/kinds.v4" > /dev/null
./target/release/spammass estimate --graph "$SMOKE_DIR/kinds.v4" \
  --core "$SMOKE_DIR/kinds-core.txt" --threads 1 --max-resident-mb 64 \
  --out "$SMOKE_DIR/kinds-ooc.tsv" > "$SMOKE_DIR/kinds-ooc.out" 2>&1
grep -q 'streamed solve:' "$SMOKE_DIR/kinds-ooc.out" \
  || { echo "estimate --max-resident-mb did not stream"; cat "$SMOKE_DIR/kinds-ooc.out"; exit 1; }
./target/release/spammass estimate --graph "$SMOKE_DIR/kinds.v4" \
  --core "$SMOKE_DIR/kinds-core.txt" --threads 1 \
  --out "$SMOKE_DIR/kinds-mem.tsv" > /dev/null
diff -q "$SMOKE_DIR/kinds-ooc.tsv" "$SMOKE_DIR/kinds-mem.tsv" \
  || { echo "scenario web: streamed scores diverge from the in-memory run"; exit 1; }
# The same settings with --threads 2 --edges-per-thread 1: the resident
# solve cuts the rows in two by gather cost; the streamed one hands each
# worker whole blocks, which the 4096-row blocks above make plural, so it
# runs on two workers too. The second worker starts its fresh reads at
# another row, so the two agree to rounding, not in bytes.
./target/release/spammass estimate --graph "$SMOKE_DIR/kinds.v4" \
  --core "$SMOKE_DIR/kinds-core.txt" --threads 2 --edges-per-thread 1 \
  --out "$SMOKE_DIR/kinds-mem-2t.tsv" > /dev/null
./target/release/spammass estimate --graph "$SMOKE_DIR/kinds.v4" \
  --core "$SMOKE_DIR/kinds-core.txt" --threads 2 --edges-per-thread 1 \
  --max-resident-mb 64 --out "$SMOKE_DIR/kinds-ooc-2t.tsv" > "$SMOKE_DIR/kinds-ooc-2t.out" 2>&1
grep -q 'streamed solve:.* on 2 workers' "$SMOKE_DIR/kinds-ooc-2t.out" \
  || { echo "the two-worker streamed solve did not run on two workers"; cat "$SMOKE_DIR/kinds-ooc-2t.out"; exit 1; }
same_verdicts "resident vs streamed, two workers" \
  "$SMOKE_DIR/kinds-mem-2t.tsv" "$SMOKE_DIR/kinds-ooc-2t.tsv" \
  || { echo "scenario web: two-worker resident and streamed verdicts diverge"; exit 1; }
rm -f "$SMOKE_DIR"/kinds*

echo "== serve smoke: daemon answers queries and folds a journal reload =="
# End to end through the real binary: estimate publishes generation 1,
# the daemon serves it on an ephemeral port (advertised on stderr), and
# copying the evolution journal into place + GET /reload runs a warm
# in-process update that publishes and swaps in generation 2 — queried
# scores must carry the new generation afterwards. --poll-ms is huge so
# the explicit /reload is the only swap trigger (deterministic).
./target/release/spammass generate --hosts 3000 --seed 13 \
  --out "$SMOKE_DIR/srv.graph" --core "$SMOKE_DIR/srv-core.txt" \
  --evolve 2 --journal "$SMOKE_DIR/srv.journal" > /dev/null
./target/release/spammass estimate --graph "$SMOKE_DIR/srv.graph" \
  --core "$SMOKE_DIR/srv-core.txt" --state "$SMOKE_DIR/srv-state" > "$SMOKE_DIR/srv-estimate.out"
# A small web is solved by the engine too, in place: about 75 sweeps for
# p at default settings (Algorithm 1's Jacobi sweep needs about 160).
SWEEPS="$(sed -n 's/^pagerank solve: .* \([0-9]*\) iterations.*/\1/p' "$SMOKE_DIR/srv-estimate.out")"
[ -n "$SWEEPS" ] && [ "$SWEEPS" -le 80 ] \
  || { echo "the 3k-host solve took ${SWEEPS:-no} sweeps (gate 80)"; cat "$SMOKE_DIR/srv-estimate.out"; exit 1; }
./target/release/spammass serve --state "$SMOKE_DIR/srv-state" \
  --journal "$SMOKE_DIR/srv-live.journal" --poll-ms 600000 \
  --max-seconds 120 > "$SMOKE_DIR/serve.out" 2> "$SMOKE_DIR/serve.err" &
SERVE_PID=$!
SPORT=""
for _ in $(seq 1 100); do
  SPORT="$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\)/.*|\1|p' "$SMOKE_DIR/serve.err")"
  [ -n "$SPORT" ] && break
  sleep 0.1
done
[ -n "$SPORT" ] || { echo "serve advertised no port"; cat "$SMOKE_DIR/serve.err"; exit 1; }
squery() {
  exec 4<>"/dev/tcp/127.0.0.1/$SPORT"
  printf 'GET %s HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' "$1" >&4
  cat <&4
  exec 4<&-
}
squery '/score?node=0' > "$SMOKE_DIR/score-gen1.out"
grep -q 'spammass.score_response/v1' "$SMOKE_DIR/score-gen1.out" \
  || { echo "/score missing its schema tag"; cat "$SMOKE_DIR/score-gen1.out"; exit 1; }
squery '/topk?k=5&by=relative' | grep -q 'spammass.topk_response/v1' \
  || { echo "/topk missing its schema tag"; exit 1; }
squery '/explain?node=0' | grep -q 'spammass.explain_response/v1' \
  || { echo "/explain missing its schema tag"; exit 1; }
squery '/stats' > "$SMOKE_DIR/stats-gen1.out"
grep -q '"generation":1' "$SMOKE_DIR/stats-gen1.out" \
  || { echo "/stats not serving generation 1"; exit 1; }
# The daemon does what the docs say: `estimate --state` published a v3
# image (version word, byte 8, is 03) and the snapshot serves it mapped.
[ "$(od -An -tu1 -j8 -N1 "$SMOKE_DIR/srv-state/gen-0001/graph.bin" | tr -d ' ')" = 3 ] \
  || { echo "gen-0001/graph.bin is not a v3 image"; exit 1; }
# Written once, same bytes: the published image, which `save` streams
# into the file chunk by chunk, equals `convert --format v3` of the same
# graph, which is encoded in memory; and the directory audits healthy.
./target/release/spammass convert --in "$SMOKE_DIR/srv.graph" --format v3 \
  --out "$SMOKE_DIR/srv.v3" > /dev/null
cmp "$SMOKE_DIR/srv.v3" "$SMOKE_DIR/srv-state/gen-0001/graph.bin" \
  || { echo "gen-0001/graph.bin differs from convert --format v3"; exit 1; }
./target/release/spammass fsck --state "$SMOKE_DIR/srv-state" > "$SMOKE_DIR/srv-fsck.out" \
  || { echo "fsck reported the served state unhealthy"; cat "$SMOKE_DIR/srv-fsck.out"; exit 1; }
grep -q 'verdict: healthy' "$SMOKE_DIR/srv-fsck.out" \
  || { echo "fsck of the served state is not healthy"; cat "$SMOKE_DIR/srv-fsck.out"; exit 1; }
grep -q '"mapped":true' "$SMOKE_DIR/stats-gen1.out" \
  || { echo "/stats does not serve the graph mapped"; cat "$SMOKE_DIR/stats-gen1.out"; exit 1; }
# Below TOPK_LIMIT hosts the snapshot's rank index holds every host, so
# the largest /topk lists them all.
NODES="$(sed -n 's/.*"nodes":\([0-9]*\).*/\1/p' "$SMOKE_DIR/stats-gen1.out")"
squery '/topk?k=10000&by=pagerank' > "$SMOKE_DIR/topk-all.out"
TOPK_COUNT="$(sed -n 's/.*"count":\([0-9]*\).*/\1/p' "$SMOKE_DIR/topk-all.out")"
[ -n "$NODES" ] && [ "$TOPK_COUNT" = "$NODES" ] \
  || { echo "/topk?k=10000 listed ${TOPK_COUNT:-no} hosts, /stats has ${NODES:-no} nodes"; exit 1; }
# A limit far past any in-degree lists every in-neighbour, allocates for
# no more, and leaves the daemon answering.
squery '/explain?node=0&limit=1000000000000' > "$SMOKE_DIR/explain-huge.out"
grep -q 'spammass.explain_response/v1' "$SMOKE_DIR/explain-huge.out" \
  || { echo "/explain with a huge limit failed"; cat "$SMOKE_DIR/explain-huge.out"; exit 1; }
squery '/score?node=0' | grep -q 'spammass.score_response/v1' \
  || { echo "the daemon stopped answering after /explain with a huge limit"; exit 1; }
# Publish fresh journal records and trigger the warm reload.
cp "$SMOKE_DIR/srv.journal" "$SMOKE_DIR/srv-live.journal"
squery '/reload' > "$SMOKE_DIR/reload.out"
grep -q '"reloaded":true' "$SMOKE_DIR/reload.out" \
  || { echo "/reload did not fold the journal"; cat "$SMOKE_DIR/reload.out"; exit 1; }
squery '/score?node=0' > "$SMOKE_DIR/score-gen2.out"
grep -q '"generation":2' "$SMOKE_DIR/score-gen2.out" \
  || { echo "post-reload /score still on generation 1"; \
       cat "$SMOKE_DIR/score-gen2.out"; exit 1; }
# The rank index was rebuilt with the new snapshot, not carried over.
squery '/topk?k=1' | grep -q '"generation":2' \
  || { echo "post-reload /topk still on generation 1"; exit 1; }
# The swap is visible: same query, different generation tag.
if diff -q "$SMOKE_DIR/score-gen1.out" "$SMOKE_DIR/score-gen2.out" > /dev/null; then
  echo "reload changed nothing in /score output"; exit 1
fi
[ -d "$SMOKE_DIR/srv-state/gen-0002" ] \
  || { echo "warm reload published no gen-0002 snapshot"; exit 1; }
kill "$SERVE_PID" 2> /dev/null || true
wait "$SERVE_PID" 2> /dev/null || true
# An idle keep-alive client does not hold up shutdown: the daemon shuts
# its connections down when it stops instead of waiting out their 10 s
# read timeout.
./target/release/spammass serve --state "$SMOKE_DIR/srv-state" --max-seconds 2 \
  > "$SMOKE_DIR/serve-idle.out" 2> "$SMOKE_DIR/serve-idle.err" &
IDLE_PID=$!
IPORT=""
for _ in $(seq 1 100); do
  IPORT="$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\)/.*|\1|p' "$SMOKE_DIR/serve-idle.err")"
  [ -n "$IPORT" ] && break
  sleep 0.1
done
[ -n "$IPORT" ] || { echo "serve advertised no port"; cat "$SMOKE_DIR/serve-idle.err"; exit 1; }
exec 5<>"/dev/tcp/127.0.0.1/$IPORT"
printf 'GET /stats HTTP/1.1\r\nHost: ci\r\n\r\n' >&5
wait "$IDLE_PID" || { echo "serve --max-seconds 2 failed"; cat "$SMOKE_DIR/serve-idle.err"; exit 1; }
exec 5<&-
STOPPED="$(sed -n 's/^serve: shut down after \([0-9.]*\)s.*/\1/p' "$SMOKE_DIR/serve-idle.out")"
awk -v s="$STOPPED" 'BEGIN { exit !(s != "" && s <= 3) }' \
  || { echo "serve --max-seconds 2 with an idle client shut down after ${STOPPED:-?}s (gate 3)"; \
       cat "$SMOKE_DIR/serve-idle.out"; exit 1; }

echo "== live metrics smoke: estimate --serve-metrics scraped while up =="
# Start a solve with the exposition server on an ephemeral port (the
# bound address lands on stderr), scrape /metrics + /snapshot + /flight
# over bash's /dev/tcp, and require the per-worker profiler series. The
# graph must clear the pool's 16384-nodes-per-worker floor or the
# auto-sizer collapses to one worker and the worker-1 series can never
# appear (--edges-per-thread only lifts the *edge* quota); 40k hosts
# admits the two workers we ask for. The linger keeps the server up
# after a fast solve so the scrape loop cannot lose the race; mid-solve
# scraping itself is pinned by crates/cli/tests/live_metrics.rs at
# 120k-host scale.
./target/release/spammass generate --hosts 40000 --seed 7 \
  --out "$SMOKE_DIR/live.graph" --core "$SMOKE_DIR/live-core.txt" > /dev/null
./target/release/spammass estimate --graph "$SMOKE_DIR/live.graph" \
  --core "$SMOKE_DIR/live-core.txt" --threads 2 --edges-per-thread 1 \
  --serve-metrics 127.0.0.1:0 --serve-linger 8000 \
  > "$SMOKE_DIR/live.out" 2> "$SMOKE_DIR/live.err" &
LIVE_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\)/metrics.*|\1|p' "$SMOKE_DIR/live.err")"
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "estimate --serve-metrics advertised no port"; exit 1; }
scrape() {
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  printf 'GET %s HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' "$1" >&3
  cat <&3
  exec 3<&-
}
METRICS=""
for _ in $(seq 1 100); do
  METRICS="$(scrape /metrics || true)"
  case "$METRICS" in *spammass_pagerank_worker_1_gather_ns*) break ;; esac
  sleep 0.05
done
for key in spammass_pagerank_worker_0_gather_ns \
    spammass_pagerank_worker_1_gather_ns \
    spammass_pagerank_worker_0_barrier_wait_ns \
    spammass_pagerank_pool_sweeps spammass_pagerank_partition_imbalance \
    spammass_obs_export_scrapes; do
  printf '%s' "$METRICS" | grep -q "$key" \
    || { echo "/metrics missing $key"; printf '%s\n' "$METRICS"; exit 1; }
done
scrape /snapshot | grep -q 'spammass.metrics_snapshot/v1' \
  || { echo "/snapshot missing its schema tag"; exit 1; }
scrape /flight | grep -q 'spammass.flight/v1' \
  || { echo "/flight missing its schema tag"; exit 1; }
wait "$LIVE_PID" \
  || { echo "estimate --serve-metrics failed"; cat "$SMOKE_DIR/live.err"; exit 1; }

echo "== durability: crash-torture suite =="
# Records every failpoint in the save/append pipelines and replays each
# one as a simulated crash, asserting recovery + fsck repair.
cargo test -q -p spammass-delta --test crash

echo "== durability smoke: torn state + torn journal -> fsck --repair -> update agrees =="
# Crash-consistency end to end through the real binary: the update above
# published a new generation; tear that snapshot and a journal tail,
# verify fsck detects the damage (nonzero exit), repair (falls back one
# generation), and check that replaying the journal reproduces the
# pre-crash detection verdicts.
grep -E 'still flagged|newly flagged|newly cleared' "$SMOKE_DIR/update.out" \
  > "$SMOKE_DIR/precrash.flags"
# Tear the tail off the current generation's score image and the journal.
CURRENT_GEN="$(sed -n 's/^generation //p' "$SMOKE_DIR/state/MANIFEST")"
GEN_DIR="$SMOKE_DIR/state/$(printf 'gen-%04d' "$CURRENT_GEN")"
truncate -s -64 "$GEN_DIR/p.bin"
cp "$SMOKE_DIR/evo.journal" "$SMOKE_DIR/torn.journal"
truncate -s -5 "$SMOKE_DIR/torn.journal"
if ./target/release/spammass fsck --state "$SMOKE_DIR/state" \
    --journal "$SMOKE_DIR/torn.journal" > /dev/null 2>&1; then
  echo "fsck reported a torn directory as healthy"; exit 1
fi
./target/release/spammass fsck --state "$SMOKE_DIR/state" \
  --journal "$SMOKE_DIR/torn.journal" --repair true > "$SMOKE_DIR/fsck.out"
for key in 'quarantined gen-' 're-pointed manifest' 'truncated journal' \
    'verdict: healthy'; do
  grep -q "$key" "$SMOKE_DIR/fsck.out" \
    || { echo "fsck --repair missing '$key'"; cat "$SMOKE_DIR/fsck.out"; exit 1; }
done
[ -d "$SMOKE_DIR/state/quarantine" ] \
  || { echo "fsck --repair left no quarantine directory"; exit 1; }
# The repaired state fell back one generation (pre-update); replaying the
# same journal must land on the same flagged set as before the crash.
./target/release/spammass update --journal "$SMOKE_DIR/evo.journal" \
  --state "$SMOKE_DIR/state" > "$SMOKE_DIR/postcrash.out"
grep -E 'still flagged|newly flagged|newly cleared' "$SMOKE_DIR/postcrash.out" \
  > "$SMOKE_DIR/postcrash.flags"
diff "$SMOKE_DIR/precrash.flags" "$SMOKE_DIR/postcrash.flags" \
  || { echo "post-repair update disagrees with pre-crash flagged set"; exit 1; }

echo "CI green."
