//! Estimation on an image renumbered once, at convert time.
//!
//! Node order is a property of the image: `spammass convert --order
//! degree` renumbers the graph and re-keys the core, and the estimator
//! runs on the renumbered pair without knowing it. PageRank is
//! permutation-equivariant (`PR(πG)(π(x)) = PR(G)(x)`), so mapping the
//! renumbered run's scores, anomaly list and flagged set back through the
//! inverse permutation must reproduce the run on the original ids.

use spammass_core::detector::{detect, DetectorConfig};
use spammass_core::estimate::{EstimatorConfig, MassEstimator};
use spammass_graph::{Graph, GraphBuilder, NodeId, NodeOrdering, Permutation};
use spammass_pagerank::PageRankConfig;

/// Deterministic pseudo-random web: a power-law-ish body, a few hubs, and
/// a small boosting farm so the detector has something to flag.
fn synthetic_web() -> Graph {
    let n: u32 = 2_000;
    let mut state: u64 = 0x5EED_CAFE;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut edges = Vec::new();
    for _ in 0..12_000 {
        let u = next() % n;
        let v = if next() % 3 == 0 { next() % 64 } else { next() % n };
        edges.push((u, v));
    }
    // A boosting farm: leaves funnel into a beneficiary outside the core.
    let target = n - 1;
    for leaf in (n - 60)..(n - 1) {
        edges.push((leaf, target));
        edges.push((target, leaf));
    }
    GraphBuilder::from_edges(n as usize, &edges)
}

fn good_core() -> Vec<NodeId> {
    (0..100u32).map(|i| NodeId((i * 37) % 500)).collect()
}

fn estimator() -> MassEstimator {
    MassEstimator::new(
        EstimatorConfig::default()
            .with_pagerank(PageRankConfig::default().tolerance(1e-14).max_iterations(10_000)),
    )
}

/// The graph and core as `convert --order degree` writes them.
fn renumbered(graph: &Graph, core: &[NodeId]) -> (Permutation, Graph, Vec<NodeId>) {
    let perm = Permutation::compute(graph, NodeOrdering::DegreeDescending);
    assert!(!perm.is_identity(), "the web should not already be in degree order");
    let permuted = perm.permute_graph(graph);
    let core = perm.permute_nodes(core);
    (perm, permuted, core)
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

#[test]
fn reordered_estimates_match_natural_within_1e12() {
    let graph = synthetic_web();
    let core = good_core();
    let natural = estimator().estimate(&graph, &core).unwrap();
    let (perm, permuted, permuted_core) = renumbered(&graph, &core);
    let reordered = estimator().estimate(&permuted, &permuted_core).unwrap();
    for (name, a, b) in [
        ("PageRank", &natural.pagerank, &reordered.pagerank),
        ("core PageRank", &natural.core_pagerank, &reordered.core_pagerank),
        ("absolute mass", &natural.absolute, &reordered.absolute),
    ] {
        let diff = max_abs_diff(a, &perm.restore_values(b));
        assert!(diff <= 1e-12, "{name} drifted by {diff:e}");
    }
    assert_eq!(natural.anomalies, perm.restore_nodes(&reordered.anomalies));
    assert_eq!(natural.dead_core, perm.restore_nodes(&reordered.dead_core));
}

#[test]
fn detector_flags_identical_sets_under_any_ordering() {
    let graph = synthetic_web();
    let core = good_core();
    // Thresholds sit well away from any node's score, so a 1e-12 wobble
    // cannot flip membership and set equality is exact.
    let thresholds = DetectorConfig { rho: 1.0, tau: 0.5 };
    let natural = estimator().estimate(&graph, &core).unwrap();
    let baseline = detect(&natural, &thresholds);
    assert!(!baseline.is_empty(), "workload should produce spam candidates");
    let (perm, permuted, permuted_core) = renumbered(&graph, &core);
    let reordered = estimator().estimate(&permuted, &permuted_core).unwrap();
    let flagged = detect(&reordered, &thresholds);
    assert_eq!(
        baseline.candidates,
        perm.restore_nodes(&flagged.candidates),
        "flagged set changed under renumbering"
    );
}

#[test]
fn reuse_path_honours_ordering() {
    // A `p` solved on the original ids is reused on the renumbered image
    // once it is carried into the image's ids by `permute_values`.
    let graph = synthetic_web();
    let core = good_core();
    let natural = estimator().estimate(&graph, &core).unwrap();
    let (perm, permuted, permuted_core) = renumbered(&graph, &core);
    let reordered = estimator()
        .estimate_with_pagerank(&permuted, &permuted_core, perm.permute_values(&natural.pagerank))
        .unwrap();
    assert!(
        max_abs_diff(&natural.core_pagerank, &perm.restore_values(&reordered.core_pagerank))
            <= 1e-12
    );
    assert!(max_abs_diff(&natural.relative, &perm.restore_values(&reordered.relative)) <= 1e-12);
}
