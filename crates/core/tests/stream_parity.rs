//! Out-of-core ≍ in-memory estimation parity.
//!
//! The blocked streamed solve exists to run graphs that don't fit in
//! RAM, so its one non-negotiable property is that going out-of-core
//! changes *nothing* about the answer: on a 120k-host web encoded into
//! tiny v4 blocks (forcing hundreds of decode cycles per sweep), the
//! streamed estimator must flag the identical host set as the in-memory
//! estimator and agree to ≤ 1e-12 per score against the default
//! (multi-worker) configuration — at the default thread count, on one
//! worker and on two. A worker reads the rows it relaxed earlier in a
//! sweep fresh, so the worker count moves scores by rounding (≤ 1e-12),
//! never the flagged set, and a fixed `(image, workers)` repeats bit for
//! bit. On one worker each, the streamed estimate is the resident one bit
//! for bit, which a comparison of printed scores cannot show.

use spammass_core::detector::{detect, DetectorConfig};
use spammass_core::estimate::{EstimatorConfig, MassEstimator};
use spammass_graph::{
    graph_to_bytes_v4_with, CompressedImage, Graph, GraphBuilder, NodeId, V4Config,
};
use spammass_pagerank::PageRankConfig;
use spammass_synth::scenario::{Scenario, ScenarioConfig};
use std::sync::Arc;

/// Deterministic 120k-host web: preferential-attachment body, a sprinkle
/// of hubs, plus two boosting farms so Algorithm 2 has real spam to flag.
fn big_web() -> Graph {
    let n: u32 = 120_000;
    let mut state: u64 = 0xD15C_0B17;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut edges = Vec::with_capacity(700_000);
    for _ in 0..600_000 {
        let u = next() % n;
        let v = if next() % 3 == 0 { next() % 256 } else { next() % n };
        edges.push((u, v));
    }
    // Two farms at the tail: leaves funnel into a beneficiary.
    for (lo, hi) in [(n - 400, n - 1), (n - 900, n - 500)] {
        for leaf in lo..hi {
            edges.push((leaf, hi));
            edges.push((hi, leaf));
        }
    }
    GraphBuilder::from_edges(n as usize, &edges)
}

fn good_core() -> Vec<NodeId> {
    (0..300u32).map(|i| NodeId((i * 97) % 1_000)).collect()
}

fn tiny_block_image(graph: &Graph) -> CompressedImage {
    // 4096-row / 16384-edge blocks: ~30 out-blocks and ~40+ in-blocks, so
    // every sweep decodes dozens of blocks and block boundaries land in
    // the middle of rows-heavy regions.
    let config = V4Config { rows_per_block: 4_096, edges_per_block: 16_384 };
    let bytes = graph_to_bytes_v4_with(graph, config).expect("v4 encode");
    CompressedImage::from_store(Arc::new(bytes)).expect("v4 image")
}

#[test]
fn streamed_flags_the_same_hosts_as_the_default_in_memory_estimator() {
    let graph = big_web();
    let image = tiny_block_image(&graph);
    // Default config: the in-memory run uses the multi-worker engine with
    // boundary-row merging, so scores may differ from the streamed solve
    // only by rounding and by where each worker's rows start — both far
    // below 1e-12 at the default tolerance.
    let pagerank = PageRankConfig::default();
    let with_threads = |t: usize| EstimatorConfig::default().with_pagerank(pagerank.threads(t));
    let in_memory = MassEstimator::new(with_threads(0)).estimate(&graph, &good_core()).unwrap();
    // Thresholds away from any score boundary, so 1e-12 wobble cannot
    // flip membership: the flagged sets must be *identical*.
    let thresholds = DetectorConfig { rho: 1.0, tau: 0.5 };
    let flagged_mem = detect(&in_memory, &thresholds);
    assert!(!flagged_mem.is_empty(), "workload should produce spam candidates");

    // The streamed side at the default thread count (0 = every core the
    // sizing rule grants), on one worker, and on two whatever the host.
    let budget = 8 * 1024 * 1024;
    let streamed: Vec<_> = [0usize, 1, 2]
        .iter()
        .map(|&t| {
            let estimator = MassEstimator::new(with_threads(t));
            let workers = estimator.streamed_workers(&image, &good_core(), budget).unwrap();
            (t, workers, estimator.estimate_streamed(&image, &good_core(), budget).unwrap())
        })
        .collect();
    assert_eq!((streamed[1].1, streamed[2].1), (1, 2), "configured counts must be what runs");
    for (threads, workers, report) in &streamed {
        let cell = format!("threads={threads} ({workers} workers)");
        let max_diff = in_memory
            .pagerank
            .iter()
            .zip(&report.pagerank)
            .chain(in_memory.core_pagerank.iter().zip(&report.core_pagerank))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff <= 1e-12, "{cell}: streamed scores drifted by {max_diff:e}");
        assert_eq!(
            flagged_mem.candidates,
            detect(report, &thresholds).candidates,
            "{cell}: out-of-core execution changed the flagged set"
        );
        // Who computes a row moves it by rounding only; the flagged set
        // is the in-memory one whoever does.
        let one = &streamed[1].2;
        let spread = one
            .pagerank
            .iter()
            .zip(&report.pagerank)
            .chain(one.core_pagerank.iter().zip(&report.core_pagerank))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(spread <= 1e-12, "{cell}: {spread:e} from the one-worker streamed solve");
    }
    // The same (image, workers) repeats bit for bit.
    let again = MassEstimator::new(with_threads(2)).estimate_streamed(&image, &good_core(), budget);
    let (again, two) = (again.unwrap(), &streamed[2].2);
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&again.pagerank), bits(&two.pagerank), "two workers, run twice: p");
    assert_eq!(bits(&again.core_pagerank), bits(&two.core_pagerank), "two workers, run twice: p'");
}

#[test]
fn one_worker_streamed_estimate_is_the_resident_one_bit_for_bit() {
    // A 20k-host scenario web: rows without in-edges, rows without
    // out-links and rows with both, all in number. A six-decimal print
    // of the scores cannot see a divergence below ≈ 1e-7; the bits can.
    let scenario = Scenario::generate(&ScenarioConfig::sized(20_000), 7);
    let graph = &scenario.graph;
    let core = scenario.section_4_2_core();
    let fixed = graph.nodes().filter(|&y| graph.in_degree(y) == 0).count();
    let terminal =
        graph.nodes().filter(|&y| graph.in_degree(y) > 0 && graph.out_degree(y) == 0).count();
    let live = graph.node_count() - fixed - terminal;
    assert!(fixed > 1_000 && terminal > 1_000 && live > 1_000, "{fixed} / {terminal} / {live}");
    let image = tiny_block_image(graph);
    let config = EstimatorConfig::default().with_pagerank(PageRankConfig::default().threads(1));
    let estimator = MassEstimator::new(config);
    assert_eq!(estimator.streamed_workers(&image, &core, u64::MAX).unwrap(), 1);
    let resident = estimator.estimate(graph, &core).unwrap();
    let streamed = estimator.estimate_streamed(&image, &core, u64::MAX).unwrap();
    for (name, a, b) in [
        ("p", &resident.pagerank, &streamed.pagerank),
        ("p'", &resident.core_pagerank, &streamed.core_pagerank),
    ] {
        assert_eq!(a.len(), b.len());
        let differ = a.iter().zip(b.iter()).filter(|(x, y)| x.to_bits() != y.to_bits()).count();
        assert_eq!(differ, 0, "{name}: {differ} of {} entries differ in their bits", a.len());
    }
}

#[test]
fn budget_below_the_working_set_is_rejected_not_degraded() {
    let graph = big_web();
    let image = tiny_block_image(&graph);
    let err = MassEstimator::new(EstimatorConfig::default())
        .estimate_streamed(&image, &good_core(), 1024 * 1024)
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("resident bytes"), "unexpected error: {msg}");
}
