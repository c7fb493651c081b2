//! Cache-aware layout: degree node order and zero-copy image loading.
//!
//! The acceptance workload of the graph layout subsystem: on a ~120k-host
//! / ≥1M-edge synthetic web, the fused gather kernel is measured on the
//! natural layout versus the degree-descending permutation (the order
//! `spammass convert --order degree` bakes into an image), and loading a
//! v3 image through the memory-mapped zero-copy path is timed. One
//! verification pass prints a `BENCH_LAYOUT {...}` JSON line for
//! `scripts/bench.sh` to collect and asserts:
//!
//! * the degree-ordered solve reproduces natural-order scores (≤1e-12
//!   after inverse mapping, both solved to tolerance 1e-12) — always;
//! * degree order beats natural order by ≥15% median, and 4
//!   configured threads are not slower than 1 — only in timed runs on
//!   hosts with ≥4 hardware threads (the auto-sizer may resolve both
//!   requests to one worker, and an oversubscribed 1-core host
//!   legitimately pays for 4 workers), never in `--test` mode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spammass_bench::Fixture;
use spammass_graph::io::{graph_to_bytes_v3, map_graph_file};
use spammass_graph::{Graph, NodeOrdering, Permutation};
use spammass_pagerank::{parallel, solve_batch, JumpVector, PageRankConfig};
use std::hint::black_box;
use std::time::Instant;

fn config() -> PageRankConfig {
    PageRankConfig::default().tolerance(1e-10).max_iterations(200)
}

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test")
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

fn solve(g: &Graph, cfg: &PageRankConfig) -> Vec<f64> {
    solve_batch(g, &[JumpVector::Uniform], cfg)
        .expect("layout bench solve converges")
        .remove(0)
        .scores
}

fn verify_and_report(g: &Graph) {
    let reps = if smoke_mode() { 1 } else { 5 };
    let cfg = config().threads(1);
    let natural_ms = median_ms(reps, || {
        black_box(solve(g, &cfg));
    });

    let t = Instant::now();
    let perm = Permutation::compute(g, NodeOrdering::DegreeDescending);
    let permuted = perm.permute_graph(g);
    let degree_order_ms = t.elapsed().as_secs_f64() * 1e3;
    // Correctness first: the permuted solve must reach the natural-order
    // fixed point after inverse mapping. The in-place sweep's fresh reads
    // follow the node order, so two orders stop at different iterates
    // within the tolerance (7e-12 apart at 1e-10 on this web): check at
    // 1e-12.
    let exact = cfg.tolerance(1e-12);
    let baseline = solve(g, &exact);
    let restored = perm.restore_values(&solve(&permuted, &exact));
    let max_diff =
        restored.iter().zip(&baseline).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    assert!(max_diff <= 1e-12, "degree: scores diverge after inverse mapping: {max_diff:e}");
    let degree_ms = median_ms(reps, || {
        black_box(solve(&permuted, &cfg));
    });

    // Thread-scaling clause: 4 configured workers must not lose to 1 —
    // on a host that actually has 4 cores. The auto-sizer may still
    // resolve both requests to one worker on small graphs, and a 1-core
    // host runs 4 workers oversubscribed, so both cases are exempt.
    let cfg4 = config().threads(4);
    let fused_4t_ms = median_ms(reps, || {
        black_box(solve(g, &cfg4));
    });
    let hardware = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let sweeps = parallel::estimated_sweeps(cfg4.tolerance, cfg4.damping);
    let pool_threads_4t =
        parallel::pool_threads(4, 0, hardware, g.node_count(), g.edge_count(), sweeps);

    // Zero-copy mmap load of the resident image.
    let dir = std::env::temp_dir().join("spammass-bench-layout");
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let v3_path = dir.join("web.v3.spamgrph");
    std::fs::write(&v3_path, graph_to_bytes_v3(g)).expect("write v3 image");
    let (mapped, stats) = map_graph_file(&v3_path).expect("v3 image maps");
    assert!(stats.is_zero_copy(), "aligned v3 image must map zero-copy: {stats:?}");
    assert_eq!(mapped.edge_count(), g.edge_count());
    let mmap_load_ms = median_ms(reps, || {
        black_box(map_graph_file(&v3_path).expect("v3 image maps"));
    });

    // Degree order's saving, under the key name the BENCH_layout schema has.
    let best_speedup_pct = (natural_ms - degree_ms) / natural_ms * 100.0;
    println!(
        "BENCH_LAYOUT {{\"hosts\": {}, \"edges\": {}, \"natural_ms\": {:.3}, \
         \"degree_ms\": {:.3}, \"degree_order_ms\": {:.3}, \"best_speedup_pct\": {:.1}, \
         \"fused_1t_ms\": {:.3}, \"fused_4t_ms\": {:.3}, \"pool_threads_4t\": {}, \
         \"mmap_load_ms\": {:.3}, \"zero_copy\": {}}}",
        g.node_count(),
        g.edge_count(),
        natural_ms,
        degree_ms,
        degree_order_ms,
        best_speedup_pct,
        natural_ms,
        fused_4t_ms,
        pool_threads_4t,
        mmap_load_ms,
        stats.is_zero_copy(),
    );

    if !smoke_mode() {
        assert!(
            best_speedup_pct >= 15.0,
            "degree order saves only {best_speedup_pct:.1}% over natural order"
        );
        assert!(
            pool_threads_4t == 1 || hardware < 4 || fused_4t_ms <= natural_ms * 1.05,
            "4 configured threads slower than 1 ({fused_4t_ms:.1}ms vs {natural_ms:.1}ms) \
             on a {hardware}-thread host (resolved {pool_threads_4t} workers)"
        );
    }
}

fn bench_layout(c: &mut Criterion) {
    let hosts: usize =
        std::env::var("LAYOUT_HOSTS").ok().and_then(|v| v.parse().ok()).unwrap_or(120_000);
    let fixture = Fixture::new(hosts);
    let g = fixture.graph();
    println!("layout: {} nodes, {} edges", g.node_count(), g.edge_count());
    verify_and_report(g);

    let cfg = config().threads(1);
    let mut group = c.benchmark_group("layout");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("fused_natural_1t", hosts), &hosts, |b, _| {
        b.iter(|| black_box(solve(g, &cfg)))
    });
    let permuted = Permutation::compute(g, NodeOrdering::DegreeDescending).permute_graph(g);
    group.bench_with_input(BenchmarkId::new("fused_degree_1t", hosts), &hosts, |b, _| {
        b.iter(|| black_box(solve(&permuted, &cfg)))
    });

    let dir = std::env::temp_dir().join("spammass-bench-layout");
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let v3_path = dir.join("web.v3.spamgrph");
    std::fs::write(&v3_path, graph_to_bytes_v3(g)).expect("write v3 image");
    group.bench_with_input(BenchmarkId::new("load_mmap_v3", hosts), &hosts, |b, _| {
        b.iter(|| black_box(map_graph_file(&v3_path).expect("v3 image maps")))
    });
    group.finish();
}

criterion_group!(benches, bench_layout);
criterion_main!(benches);
