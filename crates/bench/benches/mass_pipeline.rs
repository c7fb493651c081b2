//! End-to-end spam-mass estimation: the two PageRank runs plus the
//! absolute/relative mass derivation (Definition 3 + Section 3.5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spammass_bench::Fixture;
use spammass_core::estimate::{EstimatorConfig, MassEstimator};
use spammass_core::mass::ExactMass;
use spammass_core::Partition;
use spammass_pagerank::{solve_batch, JumpVector, PageRankConfig};
use std::hint::black_box;

fn estimator() -> MassEstimator {
    MassEstimator::new(
        EstimatorConfig::scaled(0.85)
            .with_pagerank(PageRankConfig::default().tolerance(1e-10).max_iterations(200)),
    )
}

fn bench_estimation(c: &mut Criterion) {
    let mut group = c.benchmark_group("mass_estimation");
    group.sample_size(10);
    for hosts in [10_000usize, 40_000] {
        let fixture = Fixture::new(hosts);
        let core = fixture.core.as_vec();
        group.bench_with_input(BenchmarkId::new("estimate", hosts), &hosts, |b, _| {
            b.iter(|| black_box(estimator().estimate(fixture.graph(), &core)))
        });
    }
    group.finish();
}

/// One batched two-column run (uniform + core jump through a single
/// traversal per iteration) against two sequential one-column runs of
/// the same engine, which holds everything but the batching constant —
/// plus the estimator on top of the batched solve.
fn bench_batched_vs_sequential(c: &mut Criterion) {
    let hosts = 120_000usize;
    let fixture = Fixture::new(hosts);
    let core = fixture.core.as_vec();
    let mut group = c.benchmark_group("mass_estimation_engine");
    group.sample_size(10);
    let jumps = [JumpVector::Uniform, JumpVector::scaled_core(core.clone(), 0.85)];
    for threads in [1usize, 4] {
        let pr = PageRankConfig::default().tolerance(1e-10).max_iterations(200).threads(threads);
        group.bench_with_input(
            BenchmarkId::new(format!("estimator_batched_{threads}t"), hosts),
            &hosts,
            |b, _| {
                let est = MassEstimator::new(EstimatorConfig::scaled(0.85).with_pagerank(pr));
                b.iter(|| black_box(est.estimate(fixture.graph(), &core)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("solve_batch_{threads}t"), hosts),
            &hosts,
            |b, _| b.iter(|| black_box(solve_batch(fixture.graph(), &jumps, &pr))),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("two_parallel_solves_{threads}t"), hosts),
            &hosts,
            |b, _| {
                b.iter(|| {
                    for jump in &jumps {
                        black_box(solve_batch(fixture.graph(), std::slice::from_ref(jump), &pr))
                            .ok();
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_exact_mass(c: &mut Criterion) {
    let fixture = Fixture::new(10_000);
    let spam = fixture.scenario.spam_nodes();
    let partition = Partition::from_spam_nodes(fixture.graph().node_count(), &spam);
    let cfg = PageRankConfig::default().tolerance(1e-10).max_iterations(200);
    c.bench_function("exact_mass_10k", |b| {
        b.iter(|| black_box(ExactMass::compute(fixture.graph(), &partition, &cfg)))
    });
}

fn bench_reused_pagerank(c: &mut Criterion) {
    // The Section 4.5 pattern: recompute only p' for a new core.
    let fixture = Fixture::new(10_000);
    let core = fixture.core.as_vec();
    let est = estimator().estimate(fixture.graph(), &core).unwrap().into_mass();
    let small_core = fixture.core.sample_fraction(0.1, 1).as_vec();
    c.bench_function("estimate_with_reused_pagerank_10k", |b| {
        b.iter(|| {
            black_box(estimator().estimate_with_pagerank(
                fixture.graph(),
                &small_core,
                est.pagerank.clone(),
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_estimation,
    bench_batched_vs_sequential,
    bench_exact_mass,
    bench_reused_pagerank
);
criterion_main!(benches);
