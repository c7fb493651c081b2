//! Solver comparison: Jacobi (Algorithm 1) against the production engine
//! with one column (`engine`: in place within each worker), on small
//! webs at the engine's default sizing — one worker there. The other
//! reference solvers (Gauss–Seidel, power iteration) are compared by
//! `experiments convergence`.
//!
//! Also times the engine on a ≥1M-edge synthetic web at one and four
//! threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spammass_bench::Fixture;
use spammass_pagerank::reference::jacobi;
use spammass_pagerank::{solve_batch, JumpVector, PageRankConfig};
use std::hint::black_box;

fn config() -> PageRankConfig {
    PageRankConfig::default().tolerance(1e-10).max_iterations(200)
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("pagerank_solvers");
    group.sample_size(10);
    for hosts in [10_000usize, 40_000] {
        let fixture = Fixture::new(hosts);
        let g = fixture.graph();
        let jump = JumpVector::Uniform;
        let cfg = config();
        group.bench_with_input(BenchmarkId::new("jacobi", hosts), &hosts, |b, _| {
            b.iter(|| black_box(jacobi::solve_jacobi(g, &jump, &cfg)))
        });
        group.bench_with_input(BenchmarkId::new("engine", hosts), &hosts, |b, _| {
            b.iter(|| black_box(solve_batch(g, std::slice::from_ref(&jump), &cfg)))
        });
    }
    group.finish();
}

/// The scaling workload: the engine with one uniform column on the
/// 120k-host / ≥1M-edge graph at one and four requested threads. Medians
/// land in `BENCH_pagerank.json` via `scripts/bench.sh`; thread counts
/// are encoded in the benchmark names (`_1t` / `_4t`) and annotated into
/// the JSON's `"threads"` field.
fn bench_scaling(c: &mut Criterion) {
    let hosts = 120_000usize;
    let fixture = Fixture::new(hosts);
    let g = fixture.graph();
    assert!(
        g.edge_count() >= 1_000_000,
        "scaling benchmark needs a >=1M-edge graph, got {}",
        g.edge_count()
    );
    println!("pagerank_scaling: {} nodes, {} edges", g.node_count(), g.edge_count());
    let jump = JumpVector::Uniform;
    let mut group = c.benchmark_group("pagerank_scaling");
    group.sample_size(10);
    for (name, threads) in [("fused_1t", 1usize), ("fused_4t", 4)] {
        let cfg = config().threads(threads);
        group.bench_with_input(BenchmarkId::new(name, hosts), &hosts, |b, _| {
            b.iter(|| black_box(solve_batch(g, std::slice::from_ref(&jump), &cfg)))
        });
    }
    group.finish();
}

fn bench_core_jump(c: &mut Criterion) {
    // The second PageRank run of the method: γ-scaled core jump vector.
    let fixture = Fixture::new(20_000);
    let g = fixture.graph();
    let jump = JumpVector::scaled_core(fixture.core.as_vec(), 0.85);
    let cfg = config();
    c.bench_function("pagerank_core_jump_20k", |b| {
        b.iter(|| black_box(jacobi::solve_jacobi(g, &jump, &cfg)))
    });
}

criterion_group!(benches, bench_solvers, bench_scaling, bench_core_jump);
criterion_main!(benches);
