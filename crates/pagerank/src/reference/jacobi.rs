//! Jacobi solver — Algorithm 1 of the paper, verbatim.
//!
//! ```text
//! input : transition matrix T, random jump vector v, damping factor c,
//!         error bound ε
//! output: PageRank score vector p
//!
//! i ← 0
//! p[0] ← v
//! repeat
//!     i ← i + 1
//!     p[i] ← c·Tᵀ·p[i−1] + (1 − c)·v
//! until ‖p[i] − p[i−1]‖ < ε
//! p ← p[i]
//! ```
//!
//! The sweep `c·Tᵀ·p` is implemented as an out-edge scatter: every
//! non-dangling node distributes `c·p[x]/out(x)` to each out-neighbour.
//! Dangling nodes contribute nothing — the defining property of *linear*
//! PageRank (their mass is deliberately lost rather than teleported).

use crate::batch::check_initial_length;
use crate::config::PageRankConfig;
use crate::error::PageRankError;
use crate::guard::ConvergenceGuard;
use crate::history::ResidualHistory;
use crate::jump::JumpVector;
use crate::PageRankResult;
use spammass_graph::Graph;
use spammass_obs as obs;

/// Applies one matrix–vector product `out ← c·Tᵀ·p` (out-edge scatter).
///
/// `out` must be zeroed (or pre-seeded with `(1−c)·v`) by the caller.
pub(crate) fn scatter_transition(graph: &Graph, damping: f64, p: &[f64], out: &mut [f64]) {
    for x in graph.nodes() {
        let nbrs = graph.out_neighbors(x);
        if nbrs.is_empty() {
            continue;
        }
        let share = damping * p[x.index()] / nbrs.len() as f64;
        for &y in nbrs {
            out[y.index()] += share;
        }
    }
}

/// L1 distance between two equal-length vectors.
pub(crate) fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Checks that a materialized jump vector matches the graph.
pub(crate) fn check_jump_length(v: &[f64], n: usize) -> Result<(), PageRankError> {
    if v.len() != n {
        return Err(PageRankError::JumpVectorLength { got: v.len(), expected: n });
    }
    Ok(())
}

/// Solves `(I − c·Tᵀ)p = (1 − c)v` by Jacobi iteration.
///
/// # Errors
/// Returns a configuration/jump-vector error before iterating, and
/// [`PageRankError::DidNotConverge`], [`PageRankError::Diverged`], or
/// [`PageRankError::NumericalInstability`] if the iteration fails.
pub fn solve_jacobi(
    graph: &Graph,
    jump: &JumpVector,
    config: &PageRankConfig,
) -> Result<PageRankResult, PageRankError> {
    config.validate()?;
    let v = jump.materialize(graph.node_count())?;
    solve_jacobi_dense_warm(graph, &v, None, config)
}

/// Jacobi iteration over an already-materialized jump vector, seeded
/// with `initial` scores instead of `v` when given.
///
/// The linear system `(I − c·Tᵀ)p = (1 − c)v` has a unique fixed point
/// and the iteration is a c-contraction from **any** finite start, so a
/// warm start changes neither the answer nor the convergence guarantees
/// (the [`ConvergenceGuard`] semantics are identical); it only shortens
/// the path. Starting from the previous fixed point after a small graph
/// delta typically saves most of the sweeps. `None` is the cold start
/// `p[0] ← v`.
///
/// # Errors
/// Same contract as [`solve_jacobi`], plus
/// [`PageRankError::InitialScoresLength`] when `initial` does not match
/// the graph.
pub fn solve_jacobi_dense_warm(
    graph: &Graph,
    v: &[f64],
    initial: Option<&[f64]>,
    config: &PageRankConfig,
) -> Result<PageRankResult, PageRankError> {
    config.validate()?;
    let n = graph.node_count();
    check_jump_length(v, n)?;
    let mut span = obs::span("pagerank.solve.jacobi");
    let c = config.damping;
    let one_minus_c = 1.0 - c;

    // p[0] ← v (cold) or the supplied previous fixed point (warm).
    let mut p: Vec<f64> = match initial {
        Some(p0) => {
            check_initial_length(p0, n)?;
            p0.to_vec()
        }
        None => v.to_vec(),
    };
    let mut p_next = vec![0.0f64; n];
    let mut iterations = 0usize;
    let mut residual = f64::INFINITY;
    let mut residual_history = ResidualHistory::new();
    let mut guard = ConvergenceGuard::new();

    while iterations < config.max_iterations {
        iterations += 1;
        // p[i] ← c·Tᵀ·p[i−1] + (1 − c)·v
        for (slot, &vy) in p_next.iter_mut().zip(v) {
            *slot = one_minus_c * vy;
        }
        scatter_transition(graph, c, &p, &mut p_next);
        residual = l1_distance(&p, &p_next);
        residual_history.push(residual);
        std::mem::swap(&mut p, &mut p_next);
        // Record the span metric even when the guard aborts the solve
        // (Diverged / NumericalInstability), so failed runs are sized in
        // telemetry too.
        if let Err(e) = guard.observe(iterations, residual) {
            span.record("iterations", iterations as f64);
            obs::observe("pagerank.iterations", iterations as f64);
            return Err(e);
        }
        if residual < config.tolerance {
            span.record("iterations", iterations as f64);
            obs::observe("pagerank.iterations", iterations as f64);
            return Ok(PageRankResult {
                scores: p,
                iterations,
                residual,
                converged: true,
                residual_history,
            });
        }
    }

    span.record("iterations", iterations as f64);
    obs::observe("pagerank.iterations", iterations as f64);
    Err(PageRankError::DidNotConverge { iterations, residual })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spammass_graph::GraphBuilder;

    fn cfg() -> PageRankConfig {
        PageRankConfig::default()
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        let r = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
        assert!(r.scores.is_empty());
        assert!(r.converged);
    }

    #[test]
    fn single_isolated_node() {
        let g = GraphBuilder::new(1).build();
        let r = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
        // p = (1-c)·v / (I) since no links: p = (1-c)·1 + c·0... iteration:
        // p[1] = (1-c)·1 = 0.15, fixed point of (I - cT^T)p = (1-c)v with T = 0.
        assert!((r.scores[0] - 0.15).abs() < 1e-10);
    }

    #[test]
    fn scaled_score_of_no_inlink_node_is_one() {
        // Paper convention: scaled score of a node without inlinks is 1.
        let g = GraphBuilder::from_edges(2, &[(0, 1)]);
        let r = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
        let scale = 2.0 / (1.0 - cfg().damping);
        assert!((r.scores[0] * scale - 1.0).abs() < 1e-9);
        // Node 1 receives c * p0 / 1: scaled 1 + c.
        assert!((r.scores[1] * scale - 1.85).abs() < 1e-9);
    }

    #[test]
    fn figure1_closed_form() {
        // Figure 1: g0 -> x, g1 -> x, s0 -> x, s1..sk -> s0.
        // Paper: p_x = (1 + 3c + k·c²)(1−c)/n.
        for k in [1usize, 2, 5, 10] {
            let n = 4 + k;
            let mut b = GraphBuilder::new(n);
            use spammass_graph::NodeId;
            let (x, g0, g1, s0) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
            b.add_edge(g0, x);
            b.add_edge(g1, x);
            b.add_edge(s0, x);
            for i in 0..k {
                b.add_edge(NodeId(4 + i as u32), s0);
            }
            let g = b.build();
            let c = 0.85;
            let r = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
            let expected = (1.0 + 3.0 * c + k as f64 * c * c) * (1.0 - c) / n as f64;
            assert!(
                (r.scores[x.index()] - expected).abs() < 1e-9,
                "k={k}: got {}, want {expected}",
                r.scores[x.index()]
            );
        }
    }

    #[test]
    fn dangling_mass_is_lost_not_teleported() {
        // Linear PageRank: ‖p‖ < ‖v‖ when dangling nodes exist.
        let g = GraphBuilder::from_edges(2, &[(0, 1)]);
        let r = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
        let total: f64 = r.scores.iter().sum();
        assert!(total < 1.0 - 1e-6, "total {total} should be < 1");
    }

    #[test]
    fn norm_preserved_when_no_dangling() {
        // On a graph with no dangling nodes, ‖p‖ = ‖v‖.
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let r = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
        let total: f64 = r.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn iteration_cap_is_a_typed_error() {
        // Asymmetric graph: the uniform start vector is not the fixed point,
        // so the residual stays positive and the cap is hit.
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0), (0, 2)]);
        let tight = cfg().max_iterations(2).tolerance(1e-300);
        match solve_jacobi(&g, &JumpVector::Uniform, &tight) {
            Err(PageRankError::DidNotConverge { iterations: 2, residual }) => {
                assert!(residual.is_finite() && residual > 0.0);
            }
            other => panic!("expected DidNotConverge, got {other:?}"),
        }
    }

    #[test]
    fn nan_jump_vector_is_numerical_instability() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let v = vec![f64::NAN, 0.5, 0.25];
        match solve_jacobi_dense_warm(&g, &v, None, &cfg()) {
            Err(PageRankError::NumericalInstability { iterations: 1, .. }) => {}
            other => panic!("expected NumericalInstability, got {other:?}"),
        }
    }

    #[test]
    fn overflowing_jump_vector_is_numerical_instability() {
        // Two f64::MAX contributions converging on node 2 overflow to ∞.
        let g = GraphBuilder::from_edges(3, &[(0, 2), (1, 2)]);
        let v = vec![f64::MAX, f64::MAX, f64::MAX];
        let err = solve_jacobi_dense_warm(&g, &v, None, &cfg()).unwrap_err();
        assert!(matches!(err, PageRankError::NumericalInstability { .. }), "got {err:?}");
    }

    #[test]
    fn unnormalized_jump_scales_linearly() {
        // PR is linear in v: halving v halves p.
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let full = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
        let half = JumpVector::Custom(vec![0.125; 4]);
        let r = solve_jacobi(&g, &half, &cfg()).unwrap();
        for i in 0..4 {
            assert!((r.scores[i] - full.scores[i] / 2.0).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_bad_config() {
        let g = GraphBuilder::new(1).build();
        let bad = PageRankConfig::with_damping(1.5);
        assert!(matches!(
            solve_jacobi(&g, &JumpVector::Uniform, &bad),
            Err(PageRankError::InvalidDamping(_))
        ));
    }

    #[test]
    fn rejects_length_mismatch() {
        let g = GraphBuilder::from_edges(3, &[(0, 1)]);
        assert!(matches!(
            solve_jacobi_dense_warm(&g, &[0.5, 0.5], None, &cfg()),
            Err(PageRankError::JumpVectorLength { got: 2, expected: 3 })
        ));
    }
}
