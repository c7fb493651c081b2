//! Million-host scale: v4 compressed storage and the out-of-core solve.
//!
//! The acceptance workload of the scale subsystem. On a degree-ordered
//! ~120k-host synthetic web from the streaming generator — the
//! template-locality model whose nav chains the v4 interval coder
//! exploits (override the size with `SCALE_HOSTS`):
//!
//! * the v4 delta-varint image is encoded next to the v3 aligned image
//!   and its bits/edge (both orientations, all framing included) and
//!   compression ratio are measured;
//! * the streamed (out-of-core) batched solve runs from the v4 file
//!   under a byte budget **smaller than the raw CSR working set** and is
//!   timed against the same solve on the fully resident graph — on one
//!   worker, and at the default thread count with one more block scratch
//!   in the budget per extra worker;
//! * correctness gates: the one-worker streamed scores must match the
//!   resident single-worker solve bit-for-bit, the default worker count's
//!   to within 1e-12, and — in timed (non `--test`) runs — the
//!   degree-ordered v4 image must encode at ≤ 8 bits/edge.
//!
//! One verification pass prints a `BENCH_SCALE {...}` JSON line for
//! `scripts/bench.sh` to collect into `BENCH_scale.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spammass_graph::io::graph_to_bytes_v3;
use spammass_graph::{
    graph_to_bytes_v4, CompressedImage, Graph, GraphBuilder, NodeId, NodeOrdering, Orientation,
    Permutation,
};
use spammass_pagerank::stream::{resident_bytes_needed, streamed_workers};
use spammass_pagerank::{solve_batch, solve_batch_streamed, JumpVector, PageRankConfig};
use spammass_synth::stream::{generate_stream, StreamConfig, StreamManifest};
use std::hint::black_box;
use std::time::Instant;

/// Materializes the streaming generator's scenario at `hosts` via its
/// on-disk shard format — the same path `generate --stream` + `convert`
/// take, minus the v4 encode.
fn stream_graph(hosts: usize) -> Graph {
    let dir = std::env::temp_dir().join(format!("spammass-scale-web-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    generate_stream(&dir, &StreamConfig::sized(hosts as u64), 0x5CA1E).expect("stream generation");
    let manifest = StreamManifest::read(&dir).expect("manifest");
    let mut edges = Vec::with_capacity(manifest.edges as usize);
    for path in manifest.shard_paths(&dir) {
        let bytes = std::fs::read(&path).expect("shard");
        for pair in bytes.chunks_exact(8) {
            edges.push((
                u32::from_le_bytes(pair[..4].try_into().unwrap()),
                u32::from_le_bytes(pair[4..].try_into().unwrap()),
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    GraphBuilder::from_edges(hosts, &edges)
}

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn config() -> PageRankConfig {
    // Single pooled worker on both sides: the streamed solve replicates
    // its reads and summation order, so the comparison is bit-exact, not
    // just tolerance-close.
    PageRankConfig::default().tolerance(1e-10).max_iterations(200).threads(1).edges_per_thread(1)
}

/// The production default on the streamed side: every core the sizing
/// rule grants.
fn default_threads_config() -> PageRankConfig {
    PageRankConfig::default().tolerance(1e-10).max_iterations(200)
}

/// The streamed solve's footprint on `workers` workers.
fn streamed_budget(image: &CompressedImage, jumps: &[JumpVector], workers: usize) -> u64 {
    let (max_rows, max_edges) = image.max_block_dims();
    let blocks = image.block_count(Orientation::Out) + image.block_count(Orientation::In);
    resident_bytes_needed(image.node_count(), jumps, max_rows, max_edges, blocks, workers)
}

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Peak resident set of this process in MiB, from `VmHWM` — the honest
/// "did we actually stay small" number for the whole bench process.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(-1.0)
}

fn jumps(g: &Graph) -> Vec<JumpVector> {
    // Uniform PageRank + a core-style jump: the same two-column batch the
    // mass estimator runs.
    let core: Vec<NodeId> = (0..g.node_count() as u32).step_by(500).map(NodeId).collect();
    vec![JumpVector::Uniform, JumpVector::core(core, g.node_count())]
}

/// Raw CSR working set of the resident solve: both orientations' offsets
/// and endpoints at 4 bytes each.
fn csr_bytes(g: &Graph) -> u64 {
    2 * ((g.node_count() as u64 + 1) * 4 + g.edge_count() as u64 * 4)
}

fn verify_and_report(g: &Graph) {
    let reps = if smoke_mode() { 1 } else { 5 };
    let cfg = config();

    // Degree ordering packs hubs first, shrinking both the in-row gaps of
    // popular nodes and the varint widths of low ids — the layout the
    // bits/edge acceptance number is defined on.
    let t = Instant::now();
    let ordered = Permutation::compute(g, NodeOrdering::DegreeDescending).permute_graph(g);
    let order_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let v4_bytes = graph_to_bytes_v4(&ordered);
    let encode_ms = t.elapsed().as_secs_f64() * 1e3;
    let v3_bytes_len = graph_to_bytes_v3(&ordered).len() as u64;
    let bits_per_edge = v4_bytes.len() as f64 * 8.0 / (2.0 * ordered.edge_count() as f64);
    let compression_ratio = v3_bytes_len as f64 / v4_bytes.len() as f64;

    let dir = std::env::temp_dir().join("spammass-bench-scale");
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let v4_path = dir.join("web.v4.spamgrph");
    std::fs::write(&v4_path, &v4_bytes).expect("write v4 image");
    let image = CompressedImage::open(&v4_path).expect("v4 image maps");
    assert_eq!(image.edge_count(), ordered.edge_count() as u64);

    // Budget: exactly what the one-worker streamed solve needs —
    // deliberately below the raw CSR footprint it displaces. The
    // default-threads row gets one more scratch per extra worker.
    let jump_set = jumps(&ordered);
    let blocks = image.block_count(Orientation::Out) + image.block_count(Orientation::In);
    let budget = streamed_budget(&image, &jump_set, 1);
    let cfg_default = default_threads_config();
    let workers = streamed_workers(&image, &jump_set, &cfg_default, u64::MAX)
        .expect("an unlimited budget fits");
    let budget_default = streamed_budget(&image, &jump_set, workers);
    let csr = csr_bytes(&ordered);
    // On toy smoke graphs the fixed score-vector overhead can exceed the
    // tiny CSR, so the undercut claim is only checked at real scale.
    if !smoke_mode() {
        assert!(
            budget < csr,
            "streamed budget {budget} should undercut the {csr}-byte raw CSR working set"
        );
    }

    // Correctness at tolerance 1e-12, where two solves of the same
    // system stop within 1e-12 of each other. On one worker the streamed
    // solve is the resident engine's twin, bit for bit; at the default
    // worker count each worker's first row decides which reads are
    // fresh, so that pair is only tolerance-close.
    let exact = cfg.tolerance(1e-12);
    let resident = solve_batch(&ordered, &jump_set, &exact).expect("resident solve converges");
    let streamed =
        solve_batch_streamed(&image, &jump_set, &exact, budget).expect("streamed solve converges");
    let streamed_default =
        solve_batch_streamed(&image, &jump_set, &cfg_default.tolerance(1e-12), budget_default)
            .expect("streamed solve converges");
    for (r, s) in resident.iter().zip(&streamed) {
        assert_eq!(r.scores, s.scores, "streamed scores must be bit-exact vs resident");
        assert_eq!(r.iterations, s.iterations);
    }
    for streamed in [&streamed, &streamed_default] {
        for (r, s) in resident.iter().zip(streamed) {
            let max_diff =
                r.scores.iter().zip(&s.scores).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
            assert!(max_diff <= 1e-12, "streamed scores drifted by {max_diff:e}");
        }
    }

    let resident_solve_ms = median_ms(reps, || {
        black_box(solve_batch(&ordered, &jump_set, &cfg).expect("resident solve converges"));
    });
    let streamed_solve_ms = median_ms(reps, || {
        black_box(
            solve_batch_streamed(&image, &jump_set, &cfg, budget)
                .expect("streamed solve converges"),
        );
    });

    let streamed_default_ms = median_ms(reps, || {
        black_box(
            solve_batch_streamed(&image, &jump_set, &cfg_default, budget_default)
                .expect("streamed solve converges"),
        );
    });

    println!(
        "BENCH_SCALE {{\"hosts\": {}, \"edges\": {}, \"v3_bytes\": {}, \"v4_bytes\": {}, \
         \"bits_per_edge\": {:.3}, \"compression_ratio\": {:.3}, \"encode_ms\": {:.3}, \
         \"order_ms\": {:.3}, \"budget_bytes\": {}, \"csr_bytes\": {}, \
         \"resident_solve_ms\": {:.3}, \"streamed_solve_ms\": {:.3}, \
         \"streamed_overhead_pct\": {:.1}, \"streamed_default_ms\": {:.3}, \
         \"streamed_default_workers\": {}, \"streamed_default_budget_bytes\": {}, \
         \"streamed_over_resident_1t\": {:.3}, \"blocks\": {}, \"peak_rss_mb\": {:.1}}}",
        ordered.node_count(),
        ordered.edge_count(),
        v3_bytes_len,
        v4_bytes.len(),
        bits_per_edge,
        compression_ratio,
        encode_ms,
        order_ms,
        budget,
        csr,
        resident_solve_ms,
        streamed_solve_ms,
        (streamed_solve_ms - resident_solve_ms) / resident_solve_ms * 100.0,
        streamed_default_ms,
        workers,
        budget_default,
        streamed_default_ms / resident_solve_ms,
        blocks,
        peak_rss_mb(),
    );

    if !smoke_mode() {
        assert!(
            bits_per_edge <= 8.0,
            "degree-ordered v4 image costs {bits_per_edge:.2} bits/edge (cap: 8)"
        );
        assert!(
            compression_ratio > 1.0,
            "v4 ({} bytes) must be smaller than v3 ({v3_bytes_len} bytes)",
            v4_bytes.len()
        );
    }
}

fn bench_scale(c: &mut Criterion) {
    let hosts: usize =
        std::env::var("SCALE_HOSTS").ok().and_then(|v| v.parse().ok()).unwrap_or(120_000);
    let g = &stream_graph(hosts);
    println!("scale: {} nodes, {} edges", g.node_count(), g.edge_count());
    verify_and_report(g);

    let ordered = Permutation::compute(g, NodeOrdering::DegreeDescending).permute_graph(g);
    let cfg = config();
    let jump_set = jumps(&ordered);
    let dir = std::env::temp_dir().join("spammass-bench-scale");
    let v4_path = dir.join("web.v4.spamgrph");
    let image = CompressedImage::open(&v4_path).expect("v4 image maps");
    let budget = streamed_budget(&image, &jump_set, 1);
    let cfg_default = default_threads_config();

    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("encode_v4", hosts), &hosts, |b, _| {
        b.iter(|| black_box(graph_to_bytes_v4(&ordered)))
    });
    group.bench_with_input(BenchmarkId::new("solve_resident", hosts), &hosts, |b, _| {
        b.iter(|| black_box(solve_batch(&ordered, &jump_set, &cfg).expect("converges")))
    });
    group.bench_with_input(BenchmarkId::new("solve_streamed", hosts), &hosts, |b, _| {
        b.iter(|| {
            black_box(solve_batch_streamed(&image, &jump_set, &cfg, budget).expect("converges"))
        })
    });
    group.bench_with_input(BenchmarkId::new("solve_streamed_default", hosts), &hosts, |b, _| {
        b.iter(|| {
            black_box(
                solve_batch_streamed(&image, &jump_set, &cfg_default, u64::MAX).expect("converges"),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
