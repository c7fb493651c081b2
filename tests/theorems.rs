//! Property-based verification of the paper's mathematical claims on
//! random graphs (Theorems 1–2, linearity, solver agreement, mass
//! decomposition, detector monotonicity) — through `solve_batch`, the
//! solve every caller takes. Graphs this small route to Algorithm 1
//! inside it, so one engine-sized cell repeats the partition identity on
//! the pooled and the streamed engine.

use proptest::prelude::*;
use spammass::core::estimate::{EstimatorConfig, MassEstimator};
use spammass::core::mass::ExactMass;
use spammass::core::Partition;
use spammass::graph::{Graph, GraphBuilder, NodeId};
use spammass::pagerank::contribution::{contribution_of_node, walk_sum_truncated};
use spammass::pagerank::reference::gauss_seidel::solve_gauss_seidel;
use spammass::pagerank::reference::jacobi::solve_jacobi;
use spammass::pagerank::{solve_batch, solve_batch_streamed, JumpVector, PageRankConfig};

/// Strategy: a random directed graph with 2..=20 nodes and a set of edges.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..=20).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..60);
        edges.prop_map(move |es| {
            let mut b = GraphBuilder::new(n);
            for (f, t) in es {
                if f != t {
                    b.add_edge(NodeId(f), NodeId(t));
                }
            }
            b.build()
        })
    })
}

fn cfg() -> PageRankConfig {
    PageRankConfig::default().tolerance(1e-14).max_iterations(20_000)
}

/// One score vector per jump vector, all from one `solve_batch` call.
fn scores<const K: usize>(g: &Graph, jumps: [JumpVector; K]) -> [Vec<f64>; K] {
    let columns = solve_batch(g, &jumps, &cfg()).unwrap();
    let scores: Vec<Vec<f64>> = columns.into_iter().map(|r| r.scores).collect();
    scores.try_into().expect("one column per jump vector")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PR(v₁ + v₂) = PR(v₁) + PR(v₂) — the linearity everything rests on.
    #[test]
    fn pagerank_linear_in_jump_vector(g in arb_graph(), split in 0.01f64..=0.99) {
        let n = g.node_count();
        let part = |share: f64| JumpVector::Custom(vec![share / n as f64; n]);
        let [p_full, p1, p2] = scores(&g, [part(1.0), part(split), part(1.0 - split)]);
        for i in 0..n {
            prop_assert!((p_full[i] - p1[i] - p2[i]).abs() < 1e-10);
        }
    }

    /// Theorem 1: p_y = Σ_x q_y^x.
    #[test]
    fn theorem1_contributions_sum_to_pagerank(g in arb_graph()) {
        let n = g.node_count();
        let [p] = scores(&g, [JumpVector::Uniform]);
        let mut sum = vec![0.0f64; n];
        for x in g.nodes() {
            let q = contribution_of_node(&g, x, 1.0 / n as f64, &cfg()).unwrap();
            for (s, qy) in sum.iter_mut().zip(&q) {
                *s += qy;
            }
        }
        for i in 0..n {
            prop_assert!((p[i] - sum[i]).abs() < 1e-9, "node {}: {} vs {}", i, p[i], sum[i]);
        }
    }

    /// Theorem 2 route (PR(v^x)) agrees with the definitional walk sum.
    #[test]
    fn theorem2_matches_walk_definition(g in arb_graph()) {
        let n = g.node_count();
        let x = NodeId(0);
        let q_pr = contribution_of_node(&g, x, 1.0 / n as f64, &cfg()).unwrap();
        let q_ws = walk_sum_truncated(&g, x, 1.0 / n as f64, 0.85, 300);
        for i in 0..n {
            prop_assert!((q_pr[i] - q_ws[i]).abs() < 1e-9);
        }
    }

    /// All three linear solvers agree.
    #[test]
    fn solvers_agree(g in arb_graph()) {
        let n = g.node_count();
        let a = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap().scores;
        let b = solve_gauss_seidel(&g, &JumpVector::Uniform, &cfg()).unwrap().scores;
        let [c] = scores(&g, [JumpVector::Uniform]);
        for i in 0..n {
            prop_assert!((a[i] - b[i]).abs() < 1e-10);
            prop_assert!((a[i] - c[i]).abs() < 1e-10);
        }
    }

    /// p = q^{V⁺} + q^{V⁻} for any partition — `[v, v^{V⁺}, v^{V⁻}]` as
    /// one batch — with M = q^{V⁻} and 0 ≤ m ≤ 1.
    #[test]
    fn mass_decomposition_for_any_partition(g in arb_graph(), spam_mask in proptest::collection::vec(any::<bool>(), 20)) {
        let n = g.node_count();
        let (spam, good): (Vec<NodeId>, Vec<NodeId>) = g.nodes().partition(|x| spam_mask[x.index()]);
        prop_assume!(!spam.is_empty() && !good.is_empty());
        let [p, q_good, q_spam] = scores(
            &g,
            [JumpVector::Uniform, JumpVector::core(good, n), JumpVector::core(spam.clone(), n)],
        );
        let exact = ExactMass::compute(&g, &Partition::from_spam_nodes(n, &spam), &cfg()).unwrap();
        for i in 0..n {
            prop_assert!((p[i] - q_good[i] - q_spam[i]).abs() < 1e-10);
            prop_assert!((exact.absolute[i] - q_spam[i]).abs() < 1e-10);
            prop_assert!((exact.good_contribution[i] - q_good[i]).abs() < 1e-10);
            prop_assert!(exact.relative[i] >= -1e-12);
            prop_assert!(exact.relative[i] <= 1.0 + 1e-12);
        }
    }

    /// With an unscaled good core that is a subset of V⁺, the estimate
    /// brackets the truth: M̃ ≥ M (overestimation only).
    #[test]
    fn unscaled_estimate_overestimates(g in arb_graph(), spam_mask in proptest::collection::vec(any::<bool>(), 20), core_mask in proptest::collection::vec(any::<bool>(), 20)) {
        let n = g.node_count();
        let spam: Vec<NodeId> = (0..n).filter(|&i| spam_mask[i]).map(NodeId::from_index).collect();
        let partition = Partition::from_spam_nodes(n, &spam);
        let core: Vec<NodeId> = (0..n)
            .filter(|&i| core_mask[i] && !partition.is_spam(NodeId::from_index(i)))
            .map(NodeId::from_index)
            .collect();
        prop_assume!(!core.is_empty());
        let exact = ExactMass::compute(&g, &partition, &cfg()).unwrap();
        let est = MassEstimator::new(EstimatorConfig::unscaled().with_pagerank(cfg()))
            .estimate(&g, &core).unwrap();
        for i in 0..n {
            prop_assert!(est.absolute[i] >= exact.absolute[i] - 1e-10);
            prop_assert!(est.relative[i] <= 1.0 + 1e-12);
        }
    }

    /// Detector monotonicity: raising τ or ρ only removes candidates.
    #[test]
    fn detector_monotone(g in arb_graph(), core_mask in proptest::collection::vec(any::<bool>(), 20), tau1 in 0.0f64..1.0, tau2 in 0.0f64..1.0, rho1 in 0.5f64..5.0, rho2 in 0.5f64..5.0) {
        use spammass::core::detector::{detect, DetectorConfig};
        let n = g.node_count();
        let core: Vec<NodeId> =
            (0..n).filter(|&i| core_mask[i]).map(NodeId::from_index).collect();
        prop_assume!(!core.is_empty());
        let est = MassEstimator::new(EstimatorConfig::unscaled().with_pagerank(cfg()))
            .estimate(&g, &core).unwrap();
        let (lo_t, hi_t) = if tau1 <= tau2 { (tau1, tau2) } else { (tau2, tau1) };
        let (lo_r, hi_r) = if rho1 <= rho2 { (rho1, rho2) } else { (rho2, rho1) };
        let loose = detect(&est, &DetectorConfig { rho: lo_r, tau: lo_t });
        let tight = detect(&est, &DetectorConfig { rho: hi_r, tau: hi_t });
        for c in &tight.candidates {
            prop_assert!(loose.is_candidate(*c));
        }
    }
}

/// The partition identity where the engine itself runs: the parity
/// table's 66k-node preferential-attachment graph (`pagerank`'s
/// `tests/properties.rs`), every third node spam, `[v, v^{V⁺}, v^{V⁻}]`
/// as one K=3 batch — pooled on one and two workers, and streamed.
#[test]
fn partition_identity_holds_on_the_engine() {
    use spammass::graph::{graph_to_bytes_v4_with, CompressedImage, V4Config};

    let n = 66_000u32;
    let mut endpoints: Vec<u32> = vec![0, 1];
    let mut edges: Vec<(u32, u32)> = vec![(1, 0)];
    let mut state = 0x9E3779B97F4A7C15u64;
    for x in 2..n {
        for _ in 0..6 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let t = endpoints[(state as usize) % endpoints.len()];
            if t != x {
                edges.push((x, t));
                endpoints.extend([t, x]);
            }
        }
    }
    let g = GraphBuilder::from_edges(n as usize, &edges);

    let n = g.node_count();
    let (spam, good): (Vec<NodeId>, Vec<NodeId>) = g.nodes().partition(|x| x.index() % 3 == 0);
    let jumps = [JumpVector::Uniform, JumpVector::core(good, n), JumpVector::core(spam, n)];
    let assert_identity = |cell: &str, q: Vec<spammass::pagerank::PageRankResult>| {
        let worst = (0..n)
            .map(|i| (q[0].scores[i] - q[1].scores[i] - q[2].scores[i]).abs())
            .fold(0.0f64, f64::max);
        assert!(worst <= 1e-12, "{cell}: p − q⁺ − q⁻ off by {worst:e}");
    };
    let config = PageRankConfig::default().edges_per_thread(1);
    for threads in [1usize, 2] {
        let resident = solve_batch(&g, &jumps, &config.threads(threads)).unwrap();
        assert_identity(&format!("resident, {threads} worker(s)"), resident);
    }
    let blocks = V4Config { rows_per_block: 512, edges_per_block: 2048 };
    let image = CompressedImage::from_store(std::sync::Arc::new(
        graph_to_bytes_v4_with(&g, blocks).unwrap(),
    ))
    .unwrap();
    assert_identity("streamed", solve_batch_streamed(&image, &jumps, &config, u64::MAX).unwrap());
}
