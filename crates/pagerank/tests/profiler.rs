//! Worker-pool profiler against the live process-global registry.
//!
//! Switching the live plane on is irreversible for the process, so this
//! lives in its own integration-test binary (cargo runs each `tests/`
//! file as a separate process) rather than in the crate's unit tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spammass_graph::{graph_to_bytes_v4_with, CompressedImage, GraphBuilder, V4Config};
use spammass_obs::{self as obs, names, registry, MetricSnapshot};
use spammass_pagerank::{solve_batch, solve_batch_streamed, JumpVector, PageRankConfig};

fn random_graph(n: usize, m: usize, seed: u64) -> spammass_graph::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    for _ in 0..m {
        let f = rng.gen_range(0..n as u32);
        let t = rng.gen_range(0..n as u32);
        if f != t {
            b.add_edge(spammass_graph::NodeId(f), spammass_graph::NodeId(t));
        }
    }
    b.build()
}

#[test]
fn profiled_solve_populates_per_worker_series() {
    obs::enable_live();
    let g = random_graph(40_000, 120_000, 97);
    // Drop the edge quota so two real workers run, and solve two columns
    // so the batched kernel is the one profiled.
    let config = PageRankConfig::default().threads(2).edges_per_thread(1);
    let vs = vec![JumpVector::Uniform, JumpVector::Uniform];
    solve_batch(&g, &vs, &config).expect("batched solve converges");

    let snap = registry::global().snapshot();
    for worker in 0..2 {
        for kind in ["gather_ns", "barrier_wait_ns"] {
            let name = names::worker_series(worker, kind);
            match snap.get(&name) {
                Some(MetricSnapshot::Histogram(h)) => {
                    assert!(h.histogram().count() > 0, "{name} has no samples");
                }
                other => panic!("{name}: expected histogram, got {other:?}"),
            }
        }
        let eps = names::worker_series(worker, "edges_per_s");
        match snap.get(&eps) {
            Some(MetricSnapshot::Gauge { value, .. }) => {
                assert!(*value > 0.0, "{eps} = {value}");
            }
            other => panic!("{eps}: expected set gauge, got {other:?}"),
        }
    }
    match snap.get(names::PAGERANK_POOL_SWEEPS) {
        Some(MetricSnapshot::Counter { total, .. }) => {
            assert!(*total >= 1.0, "no sweeps counted: {total}");
        }
        other => panic!("sweeps: expected counter, got {other:?}"),
    }
    match snap.get(names::PAGERANK_PARTITION_IMBALANCE) {
        Some(MetricSnapshot::Gauge { value, .. }) => {
            assert!(*value >= 1.0, "imbalance below perfect split: {value}");
        }
        other => panic!("imbalance: expected set gauge, got {other:?}"),
    }
    match snap.get(names::PAGERANK_PARTITION_CHUNKS) {
        Some(MetricSnapshot::Gauge { value, .. }) => assert_eq!(*value, 2.0),
        other => panic!("chunks: expected set gauge, got {other:?}"),
    }
    // The facade tees into the registry too: the sizing gauge arrives
    // through the plain obs::gauge call.
    assert!(snap.get(names::PAGERANK_POOL_THREADS).is_some());

    // The streamed solve runs on the same pool, so the same series cover
    // its workers' decode + gather. (Same test: the registry is one per
    // process and the chunk gauge above would race a second test.) Three
    // workers, so worker 2's series can only come from this solve.
    let wide = random_graph(50_000, 150_000, 101);
    let blocks = V4Config { rows_per_block: 512, edges_per_block: 2048 };
    let bytes = graph_to_bytes_v4_with(&wide, blocks).expect("v4 encode");
    let image = CompressedImage::from_store(std::sync::Arc::new(bytes)).expect("v4 image");
    solve_batch_streamed(&image, &vs, &config.threads(3), u64::MAX).expect("streamed solve");
    let snap = registry::global().snapshot();
    for kind in ["gather_ns", "barrier_wait_ns"] {
        let name = names::worker_series(2, kind);
        match snap.get(&name) {
            Some(MetricSnapshot::Histogram(h)) => {
                assert!(h.histogram().count() > 0, "{name} has no samples")
            }
            other => panic!("{name}: expected histogram, got {other:?}"),
        }
    }
    match snap.get(names::PAGERANK_PARTITION_CHUNKS) {
        Some(MetricSnapshot::Gauge { value, .. }) => assert_eq!(*value, 3.0),
        other => panic!("chunks: expected set gauge, got {other:?}"),
    }
    match snap.get(names::PAGERANK_POOL_THREADS) {
        Some(MetricSnapshot::Gauge { value, .. }) => assert_eq!(*value, 3.0),
        other => panic!("pool threads: expected set gauge, got {other:?}"),
    }
}
