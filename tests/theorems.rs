//! Property-based verification of the paper's mathematical claims on
//! random graphs (Theorems 1–2, linearity, solver agreement, mass
//! decomposition, detector monotonicity).

use proptest::prelude::*;
use spammass::core::estimate::{EstimatorConfig, MassEstimator};
use spammass::core::mass::ExactMass;
use spammass::core::Partition;
use spammass::graph::{Graph, GraphBuilder, NodeId};
use spammass::pagerank::contribution::{contribution_of_node, walk_sum_truncated};
use spammass::pagerank::gauss_seidel::solve_gauss_seidel_dense;
use spammass::pagerank::jacobi::solve_jacobi_dense;
use spammass::pagerank::{solve_batch, JumpVector, PageRankConfig};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PR(v₁ + v₂) = PR(v₁) + PR(v₂) — the linearity everything rests on.
    #[test]
    fn pagerank_linear_in_jump_vector(g in arb_graph(), split in 0.0f64..=1.0) {
        let n = g.node_count();
        let v_full = vec![1.0 / n as f64; n];
        let v1: Vec<f64> = v_full.iter().map(|x| x * split).collect();
        let v2: Vec<f64> = v_full.iter().map(|x| x * (1.0 - split)).collect();
        let p_full = solve_jacobi_dense(&g, &v_full, &cfg()).unwrap().scores;
        let p1 = solve_jacobi_dense(&g, &v1, &cfg()).unwrap().scores;
        let p2 = solve_jacobi_dense(&g, &v2, &cfg()).unwrap().scores;
        for i in 0..n {
            prop_assert!((p_full[i] - p1[i] - p2[i]).abs() < 1e-10);
        }
    }

    /// Theorem 1: p_y = Σ_x q_y^x.
    #[test]
    fn theorem1_contributions_sum_to_pagerank(g in arb_graph()) {
        let n = g.node_count();
        let v = vec![1.0 / n as f64; n];
        let p = solve_jacobi_dense(&g, &v, &cfg()).unwrap().scores;
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
        let v = vec![1.0 / n as f64; n];
        let a = solve_jacobi_dense(&g, &v, &cfg()).unwrap().scores;
        let b = solve_gauss_seidel_dense(&g, &v, &cfg()).unwrap().scores;
        let c = solve_batch(&g, &[JumpVector::Uniform], &cfg()).unwrap().remove(0).scores;
        for i in 0..n {
            prop_assert!((a[i] - b[i]).abs() < 1e-10);
            prop_assert!((a[i] - c[i]).abs() < 1e-10);
        }
    }

    /// p = q^{V⁺} + q^{V⁻} for any partition, and 0 ≤ m ≤ 1.
    #[test]
    fn mass_decomposition_for_any_partition(g in arb_graph(), spam_mask in proptest::collection::vec(any::<bool>(), 20)) {
        let n = g.node_count();
        let spam: Vec<NodeId> = (0..n)
            .filter(|&i| spam_mask[i])
            .map(NodeId::from_index)
            .collect();
        let partition = Partition::from_spam_nodes(n, &spam);
        let exact = ExactMass::compute(&g, &partition, &cfg()).unwrap();
        for i in 0..n {
            prop_assert!(
                (exact.pagerank[i] - exact.good_contribution[i] - exact.absolute[i]).abs() < 1e-10
            );
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
