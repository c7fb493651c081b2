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
//! ## Solving
//!
//! One way to solve, and the paper's algorithms beside it as references:
//!
//! | Entry | Module | Role |
//! |---|---|---|
//! | [`solve_columns`] | [`chain`] | the production solve: k jump vectors (k = 1 included), cold or seeded, through [`solve_batch_warm`] behind one retry rule — what the estimator, the updater, the daemon, the baselines and the CLI call |
//! | [`solve_batch`]/[`solve_batch_warm`] | [`batch`] | the engine, resident: one in-CSR traversal per sweep for all columns on a worker pool; one attempt, no retry |
//! | [`solve_batch_streamed`] | [`stream`] | the same sweep on the same pool, each worker decoding its own range of a compressed image's blocks, under a byte budget |
//! | Algorithm 1, Gauss–Seidel, power iteration | [`reference`] | the paper's solvers as written: Section 2.2 experiment, test and bench oracles, and the engine's own route for graphs too small to be worth a gather |
//!
//! The engine (private module `engine`) is one per-row relaxation body
//! and one `K`-column loop on persistent workers with one handoff per
//! round (`pool`), fed by two row sources that both hand each worker a
//! contiguous range of whole rows: the resident in-CSR, cut into ranges
//! of about equal gather cost (`partition`), and a compressed image's
//! in-blocks, cut into one range per worker. Results are bit-for-bit
//! deterministic for a fixed worker count and identical across batch
//! widths; across worker counts scores agree to rounding, and the
//! one-worker streamed solve is bit-identical to the one-worker resident
//! solve. [`parallel`] sizes the pool.
//!
//! Every solve is **fallible**: `Err` with a typed [`PageRankError`] on
//! invalid input, on a hit iteration cap
//! ([`PageRankError::DidNotConverge`]), on a growing residual
//! ([`PageRankError::Diverged`]), and on NaN/overflow poisoning
//! ([`PageRankError::NumericalInstability`]). [`solve_columns`] answers a
//! hit cap by solving the same system once more with the cap the failed
//! run's residual asks for, and reports every attempt
//! ([`AttemptReport`]); it never changes the damping factor, so every
//! answer it returns is an answer for the configured system.
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
//! use spammass_pagerank::{solve_batch, JumpVector, PageRankConfig};
//!
//! let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
//! let pr = solve_batch(&g, &[JumpVector::Uniform], &PageRankConfig::default())
//!     .expect("symmetric 3-cycle converges")
//!     .remove(0);
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
mod guard;
mod history;
mod jump;
mod kernel;
pub mod parallel;
mod partition;
mod pool;
mod profiler;
pub mod reference;
mod scores;
pub mod stream;

pub use batch::{solve_batch, solve_batch_warm};
pub use chain::{solve_columns, AttemptOutcome, AttemptReport, ChainError, ChainSolve};
pub use config::PageRankConfig;
pub use error::PageRankError;
pub use history::ResidualHistory;
pub use jump::JumpVector;
pub use scores::PageRankScores;
pub use stream::solve_batch_streamed;

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
