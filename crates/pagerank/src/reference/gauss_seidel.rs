//! Gauss–Seidel solver for linear PageRank.
//!
//! Section 2.2 notes that the linear-system view admits solvers "such as
//! the Jacobi or Gauss-Seidel methods, which are regularly faster than the
//! algorithms available for solving eigensystems". Gauss–Seidel updates
//! scores in place, consuming already-updated in-neighbour values within
//! the same sweep:
//!
//! ```text
//! p[y] ← (1 − c)·v[y] + c · Σ_{(x,y) ∈ E} p[x] / out(x)
//! ```
//!
//! Because the iteration matrix `c·Tᵀ` has spectral radius ≤ c < 1, the
//! method converges for any sweep order; in practice it needs roughly half
//! the iterations Jacobi does.

use crate::config::PageRankConfig;
use crate::error::PageRankError;
use crate::guard::ConvergenceGuard;
use crate::history::ResidualHistory;
use crate::jump::JumpVector;
use crate::PageRankResult;
use spammass_graph::Graph;
use spammass_obs as obs;

/// Solves `(I − c·Tᵀ)p = (1 − c)v` by Gauss–Seidel sweeps in node-id order.
///
/// # Errors
/// Returns a configuration/jump-vector error before iterating, and
/// [`PageRankError::DidNotConverge`], [`PageRankError::Diverged`], or
/// [`PageRankError::NumericalInstability`] if the iteration fails.
pub fn solve_gauss_seidel(
    graph: &Graph,
    jump: &JumpVector,
    config: &PageRankConfig,
) -> Result<PageRankResult, PageRankError> {
    config.validate()?;
    let v = jump.materialize(graph.node_count())?;
    let mut span = obs::span("pagerank.solve.gauss_seidel");
    let c = config.damping;
    let one_minus_c = 1.0 - c;

    // Pre-compute reciprocal out-degrees to keep the inner gather loop
    // division-free (perf-book: hoist invariant work out of hot loops).
    let inv_out: Vec<f64> = graph
        .nodes()
        .map(|x| {
            let d = graph.out_degree(x);
            if d == 0 {
                0.0
            } else {
                1.0 / d as f64
            }
        })
        .collect();

    let mut p = v.clone();
    let mut iterations = 0usize;
    let mut residual = f64::INFINITY;
    let mut residual_history = ResidualHistory::new();
    let mut guard = ConvergenceGuard::new();

    while iterations < config.max_iterations {
        iterations += 1;
        let mut delta = 0.0f64;
        for y in graph.nodes() {
            let mut acc = 0.0f64;
            for &x in graph.in_neighbors(y) {
                acc += p[x.index()] * inv_out[x.index()];
            }
            let new = one_minus_c * v[y.index()] + c * acc;
            delta += (new - p[y.index()]).abs();
            p[y.index()] = new;
        }
        residual = delta;
        residual_history.push(residual);
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
    fn agrees_with_jacobi_on_cycle() {
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let a = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
        let b = solve_gauss_seidel(&g, &JumpVector::Uniform, &cfg()).unwrap();
        for i in 0..5 {
            assert!((a.scores[i] - b.scores[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn agrees_with_jacobi_on_dag_with_dangling() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let a = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
        let b = solve_gauss_seidel(&g, &JumpVector::Uniform, &cfg()).unwrap();
        for i in 0..6 {
            assert!((a.scores[i] - b.scores[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn agrees_with_jacobi_under_core_jump() {
        use spammass_graph::NodeId;
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let jump = JumpVector::scaled_core(vec![NodeId(0), NodeId(1)], 0.85);
        let a = solve_jacobi(&g, &jump, &cfg()).unwrap();
        let b = solve_gauss_seidel(&g, &jump, &cfg()).unwrap();
        for i in 0..4 {
            assert!((a.scores[i] - b.scores[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn converges_in_fewer_iterations_than_jacobi() {
        // A long chain maximizes the benefit of in-sweep propagation.
        let edges: Vec<(u32, u32)> = (0..99).map(|i| (i, i + 1)).collect();
        let g = GraphBuilder::from_edges(100, &edges);
        let a = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
        let b = solve_gauss_seidel(&g, &JumpVector::Uniform, &cfg()).unwrap();
        assert!(
            b.iterations < a.iterations,
            "gauss-seidel {} vs jacobi {}",
            b.iterations,
            a.iterations
        );
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        let r = solve_gauss_seidel(&g, &JumpVector::Uniform, &cfg()).unwrap();
        assert!(r.scores.is_empty());
        assert!(r.converged);
    }

    #[test]
    fn iteration_cap_is_a_typed_error() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0), (0, 2)]);
        let tight = cfg().max_iterations(1).tolerance(1e-300);
        assert!(matches!(
            solve_gauss_seidel(&g, &JumpVector::Uniform, &tight),
            Err(PageRankError::DidNotConverge { iterations: 1, .. })
        ));
    }
}
