//! Power iteration on the augmented transition matrix `T″` — the classical
//! eigenvector formulation of PageRank (Section 2.2, equation (1)).
//!
//! ```text
//! T′ = T + d·vᵀ              (dangling rows replaced by v)
//! T″ = c·T′ + (1 − c)·1ₙ·vᵀ  (teleportation)
//! p  = T″ᵀ·p                 (dominant eigenvector, λ = 1)
//! ```
//!
//! This solver exists for **cross-validation**: the paper shows that the
//! linear formulation (equation (3)) solves the same problem up to
//! rescaling `p / ‖p‖` when `‖v‖ = 1`. The test-suite verifies that claim
//! numerically, and the benches verify the paper's remark that linear
//! solvers are "regularly faster".

use crate::config::PageRankConfig;
use crate::error::PageRankError;
use crate::guard::ConvergenceGuard;
use crate::history::ResidualHistory;
use crate::jump::JumpVector;
use crate::reference::jacobi::{l1_distance, scatter_transition};
use crate::PageRankResult;
use spammass_graph::Graph;
use spammass_obs as obs;

/// Solves the eigenvector formulation `p = T″ᵀ p`, returning the stationary
/// distribution (normalized to `‖p‖₁ = 1`).
///
/// The jump vector must be a proper distribution (`‖v‖₁ = 1`); pass
/// [`JumpVector::Uniform`] for the classic setting.
///
/// # Errors
/// Returns [`PageRankError::InvalidJumpVector`] when `‖v‖₁ ≠ 1`, plus the
/// shared configuration and convergence errors of the other solvers.
pub fn solve_power(
    graph: &Graph,
    jump: &JumpVector,
    config: &PageRankConfig,
) -> Result<PageRankResult, PageRankError> {
    config.validate()?;
    let n = graph.node_count();
    let v = jump.materialize(n)?;
    if n == 0 {
        return Ok(PageRankResult {
            scores: Vec::new(),
            iterations: 0,
            residual: 0.0,
            converged: true,
            residual_history: ResidualHistory::new(),
        });
    }
    let norm: f64 = v.iter().sum();
    if (norm - 1.0).abs() >= 1e-9 {
        return Err(PageRankError::InvalidJumpVector(format!(
            "power iteration requires a normalized jump vector (got ‖v‖ = {norm})"
        )));
    }
    let mut span = obs::span("pagerank.solve.power");
    let c = config.damping;

    let mut p = v.clone();
    let mut p_next = vec![0.0f64; n];
    let mut iterations = 0usize;
    let mut residual = f64::INFINITY;
    let mut residual_history = ResidualHistory::new();
    let mut guard = ConvergenceGuard::new();

    while iterations < config.max_iterations {
        iterations += 1;

        // dᵀ·p: total score sitting on dangling nodes this round.
        let dangling_mass: f64 = graph.dangling_nodes().map(|x| p[x.index()]).sum();
        // ‖p‖ = 1 is maintained, so the teleport term is (1 − c)·v; the
        // dangling term redistributes c·(dᵀp) according to v.
        let background = c * dangling_mass + (1.0 - c);
        for (slot, &vy) in p_next.iter_mut().zip(&v) {
            *slot = background * vy;
        }
        scatter_transition(graph, c, &p, &mut p_next);

        residual = l1_distance(&p, &p_next);
        residual_history.push(residual);
        std::mem::swap(&mut p, &mut p_next);
        // Record the span metric even when the guard aborts the solve.
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
    use crate::reference::jacobi::solve_jacobi;
    use spammass_graph::GraphBuilder;

    fn cfg() -> PageRankConfig {
        PageRankConfig::default()
    }

    #[test]
    fn stationary_distribution_sums_to_one() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let r = solve_power(&g, &JumpVector::Uniform, &cfg()).unwrap();
        let total: f64 = r.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(r.converged);
    }

    #[test]
    fn matches_linear_pagerank_up_to_rescaling_when_no_dangling() {
        // With no dangling nodes T′ = T, and the linear solution with
        // k = 1 − c equals the stationary distribution exactly.
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)]);
        let lin = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
        let pow = solve_power(&g, &JumpVector::Uniform, &cfg()).unwrap();
        for i in 0..5 {
            assert!(
                (lin.scores[i] - pow.scores[i]).abs() < 1e-8,
                "node {i}: lin {} vs pow {}",
                lin.scores[i],
                pow.scores[i]
            );
        }
    }

    #[test]
    fn rescaled_linear_matches_power_with_dangling() {
        // With dangling nodes the raw vectors differ (linear loses mass),
        // but the paper says normalizing p/‖p‖ gives the same ordering and
        // proportions as the eigen solution only when dangling mass is
        // reinjected proportionally to v — verify ordering agreement here.
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)]);
        let lin = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
        let pow = solve_power(&g, &JumpVector::Uniform, &cfg()).unwrap();
        let mut lin_order: Vec<usize> = (0..6).collect();
        lin_order.sort_by(|&a, &b| lin.scores[a].total_cmp(&lin.scores[b]));
        let mut pow_order: Vec<usize> = (0..6).collect();
        pow_order.sort_by(|&a, &b| pow.scores[a].total_cmp(&pow.scores[b]));
        assert_eq!(lin_order, pow_order);
    }

    #[test]
    fn dangling_handling_conserves_mass() {
        // Star into a dangling hub: all mass re-enters via teleport.
        let g = GraphBuilder::from_edges(4, &[(0, 3), (1, 3), (2, 3)]);
        let r = solve_power(&g, &JumpVector::Uniform, &cfg()).unwrap();
        let total: f64 = r.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Hub is the clear winner.
        assert!(r.scores[3] > r.scores[0]);
    }

    #[test]
    fn rejects_unnormalized_jump() {
        use spammass_graph::NodeId;
        let g = GraphBuilder::from_edges(2, &[(0, 1)]);
        let jump = JumpVector::scaled_core(vec![NodeId(0)], 0.5);
        match solve_power(&g, &jump, &cfg()) {
            Err(PageRankError::InvalidJumpVector(msg)) => {
                assert!(msg.contains("normalized jump vector"), "{msg}");
            }
            other => panic!("expected InvalidJumpVector, got {other:?}"),
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        let r = solve_power(&g, &JumpVector::Uniform, &cfg()).unwrap();
        assert!(r.scores.is_empty());
        assert!(r.converged);
    }
}
