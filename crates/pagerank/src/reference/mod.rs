//! Reference solvers: the paper's algorithms written down as the paper
//! states them, kept out of the production route.
//!
//! Nothing the estimator, the updater, the daemon or the CLI computes is
//! solved here by name. These three exist for
//!
//! * `experiments -- convergence`, the Section 2.2 comparison of linear
//!   solvers against the eigenvector formulation;
//! * tests and benches, as the oracle the engine is held to (≤ 1e-12 per
//!   score, see `tests/properties.rs::engine_parity_table`).
//!
//! `scripts/ci.sh` greps that no other production file names them.

pub mod gauss_seidel;
pub mod jacobi;
pub mod power;
