//! # spammass-pagerank
//!
//! Linear PageRank solvers and PageRank-contribution machinery for the
//! spam-mass reproduction of Gyöngyi et al., *Link Spam Detection Based on
//! Mass Estimation* (VLDB 2006).
//!
//! The paper adopts the **linear system formulation** of PageRank
//! (Section 2.2, equation (3)):
//!
//! ```text
//! (I − c·Tᵀ) p = (1 − c) v
//! ```
//!
//! where `T` is the (substochastic) transition matrix, `c` the damping
//! factor, and `v` a — possibly **unnormalized** — random-jump vector.
//! Two properties of this formulation carry the whole paper:
//!
//! 1. **Linearity in `v`**: `PR(v₁ + v₂) = PR(v₁) + PR(v₂)`, which makes
//!    PageRank contributions of node sets computable as plain PageRank runs
//!    (Theorem 2), and
//! 2. **no dangling-node patching**: mass lost at dangling nodes is simply
//!    not re-injected, so a jump vector supported on a *good core* yields
//!    exactly the good-contribution estimate `p′` of Section 3.4.
//!
//! ## Solvers
//!
//! One production solve, three references:
//!
//! | Solver | Module | Role |
//! |---|---|---|
//! | Engine, resident | [`batch`] | [`solve_batch`]/[`solve_batch_warm`]: k jump vectors (k = 1 included) through one in-CSR traversal per sweep on a worker pool — what the estimator, the updater and the daemon run |
//! | Engine, streamed | [`stream`] | [`solve_batch_streamed`]: the same sweep on the same pool, each worker decoding its own range of a compressed image's blocks, under a byte budget |
//! | Jacobi | [`jacobi`] | Algorithm 1 of the paper, verbatim — the small-graph path and the test oracle |
//! | Gauss–Seidel | [`gauss_seidel`] | in-place sweeps, ~2× fewer iterations; Section 2.2 experiment, chain fallback |
//! | Power iteration | [`power`] | eigenvector formulation on `T″`; Section 2.2 experiment, cross-validation |
//!
//! The engine (private module `engine`) is one per-row relaxation body
//! and one `K`-column controller, fed by two row sources: the resident
//! in-CSR cut into equal edge ranges ([`partition`]) on persistent
//! workers with one handoff per sweep (`pool`), and a compressed
//! image's in-blocks cut into one contiguous range per worker of the
//! same pool. Results are bit-for-bit deterministic for a fixed worker
//! count, identical across batch widths; streamed scores do not depend
//! on the worker count, and the one-worker streamed solve is
//! bit-identical to the one-worker resident solve. [`parallel`] sizes
//! the pool and routes sub-threshold graphs to Algorithm 1.
//!
//! All solvers are **fallible**: they return `Err` with a typed
//! [`PageRankError`] on invalid input, on a hit iteration cap
//! ([`PageRankError::DidNotConverge`]), on a growing residual
//! ([`PageRankError::Diverged`]), and on NaN/overflow poisoning
//! ([`PageRankError::NumericalInstability`]). [`SolverChain`] layers
//! graceful degradation over the strict solvers, with per-attempt
//! [`AttemptReport`] diagnostics.
//!
//! ## Contributions
//!
//! [`contribution`] implements `q^x = PR(v^x)` and `q^U = PR(v^U)`
//! (Theorems 1–2) plus a walk-enumeration reference evaluator used by the
//! property-test suite to validate the theorems from first principles.
//!
//! ## Example
//!
//! ```
//! use spammass_graph::GraphBuilder;
//! use spammass_pagerank::{PageRankConfig, JumpVector, solve};
//!
//! let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
//! let pr = solve(&g, &JumpVector::Uniform, &PageRankConfig::default())
//!     .expect("symmetric 3-cycle converges");
//! assert!(pr.converged);
//! // A symmetric cycle gives equal scores.
//! assert!((pr.scores[0] - pr.scores[1]).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod batch;
pub mod chain;
mod config;
pub mod contribution;
mod engine;
mod error;
pub mod gauss_seidel;
mod guard;
mod history;
pub mod jacobi;
mod jump;
mod kernel;
pub mod parallel;
pub mod partition;
mod pool;
pub mod power;
mod profiler;
mod scores;
pub mod stream;

pub use batch::{solve_batch, solve_batch_warm};
pub use chain::{AttemptOutcome, AttemptReport, ChainError, ChainSolve, SolverChain, SolverKind};
pub use config::PageRankConfig;
pub use error::PageRankError;
pub use history::ResidualHistory;
pub use jump::JumpVector;
pub use partition::EdgePartition;
pub use scores::PageRankScores;
pub use stream::solve_batch_streamed;

use spammass_graph::Graph;

/// Result of a PageRank solve.
#[derive(Debug, Clone)]
pub struct PageRankResult {
    /// Raw (possibly unnormalized) PageRank scores, one per node.
    pub scores: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final L1 residual `‖p[i] − p[i−1]‖₁`.
    pub residual: f64,
    /// Whether the residual dropped below the configured tolerance. Always
    /// `true` for results returned by the strict solvers (a failed solve is
    /// an `Err` instead); retained so downstream reporting stays uniform.
    pub converged: bool,
    /// Per-iteration L1 residuals (`residual_history.last()` equals
    /// `residual`). Lets callers compare solver convergence rates — the
    /// paper's Section 2.2 argument for the linear formulation. Bounded:
    /// long solves are deterministically thinned (see [`ResidualHistory`]);
    /// the exhaustive series is available through the `pagerank.residual`
    /// telemetry histogram.
    pub residual_history: ResidualHistory,
}

impl PageRankResult {
    /// Wraps the scores with scaling helpers.
    pub fn scores_view(&self, config: &PageRankConfig) -> PageRankScores<'_> {
        PageRankScores::new(&self.scores, config.damping)
    }

    /// Estimated geometric per-iteration convergence rate over the last
    /// few recorded residuals (`≈ c` for Jacobi, smaller for
    /// Gauss–Seidel). `None` with fewer than three iterations.
    pub fn convergence_rate(&self) -> Option<f64> {
        self.residual_history.convergence_rate()
    }
}

/// Solves linear PageRank with the default (Jacobi) solver — the exact
/// Algorithm 1 of the paper.
///
/// # Errors
/// See [`jacobi::solve_jacobi`]; use [`SolverChain`] for automatic fallback.
pub fn solve(
    graph: &Graph,
    jump: &JumpVector,
    config: &PageRankConfig,
) -> Result<PageRankResult, PageRankError> {
    jacobi::solve_jacobi(graph, jump, config)
}
