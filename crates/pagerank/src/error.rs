//! Error types for PageRank computation.

use std::fmt;

/// Errors from PageRank configuration or jump-vector construction.
#[derive(Debug, Clone, PartialEq)]
pub enum PageRankError {
    /// Damping factor outside `[0, 1)`.
    InvalidDamping(f64),
    /// Non-positive or non-finite tolerance.
    InvalidTolerance(f64),
    /// Zero iteration cap.
    InvalidIterationCap,
    /// A custom jump vector's length did not match the graph.
    JumpVectorLength {
        /// Supplied length.
        got: usize,
        /// Graph node count.
        expected: usize,
    },
    /// A jump vector had negative entries or norm outside `(0, 1]`.
    InvalidJumpVector(String),
    /// A warm-start score vector (or vector set) did not match the solve:
    /// wrong node count, or wrong number of columns for a batched solve.
    InitialScoresLength {
        /// Supplied length (or column count).
        got: usize,
        /// Expected length (or column count).
        expected: usize,
    },
    /// The iteration cap was reached before the residual dropped below the
    /// configured tolerance.
    DidNotConverge {
        /// Iterations performed before giving up.
        iterations: usize,
        /// L1 residual after the last iteration.
        residual: f64,
    },
    /// The residual grew persistently instead of contracting — the iterate
    /// is moving away from the fixed point.
    Diverged {
        /// Iteration at which divergence was declared.
        iterations: usize,
        /// L1 residual at that iteration.
        residual: f64,
    },
    /// A non-finite residual (NaN or ±∞) appeared mid-iteration, meaning the
    /// score vector itself has been poisoned by overflow or NaN input.
    NumericalInstability {
        /// Iteration at which the non-finite value surfaced.
        iterations: usize,
        /// The offending residual (NaN or infinite).
        residual: f64,
    },
    /// A streamed (out-of-core) solve's resident working set — score
    /// vectors, out-degree coefficients, and the block scratch — does not
    /// fit the caller's memory budget.
    ResidentBudget {
        /// Bytes the solve must keep resident.
        required: u64,
        /// The configured budget in bytes.
        budget: u64,
    },
    /// The edge source of a streamed solve failed mid-solve: a compressed
    /// block did not decode (block checksums are verified lazily at first
    /// decode, so payload damage surfaces here, not at open). Carries the
    /// graph layer's error text.
    EdgeSource(String),
}

impl fmt::Display for PageRankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageRankError::InvalidDamping(c) => {
                write!(f, "damping factor {c} outside [0, 1)")
            }
            PageRankError::InvalidTolerance(t) => {
                write!(f, "tolerance {t} must be positive and finite")
            }
            PageRankError::InvalidIterationCap => write!(f, "max_iterations must be nonzero"),
            PageRankError::JumpVectorLength { got, expected } => {
                write!(f, "jump vector length {got} does not match node count {expected}")
            }
            PageRankError::InvalidJumpVector(msg) => write!(f, "invalid jump vector: {msg}"),
            PageRankError::InitialScoresLength { got, expected } => {
                write!(f, "initial score vector length {got} does not match expected {expected}")
            }
            PageRankError::DidNotConverge { iterations, residual } => {
                write!(
                    f,
                    "did not converge within {iterations} iterations (last residual {residual:.3e})"
                )
            }
            PageRankError::Diverged { iterations, residual } => {
                write!(
                    f,
                    "residual diverging after {iterations} iterations (residual {residual:.3e})"
                )
            }
            PageRankError::NumericalInstability { iterations, residual } => {
                write!(f, "numerical instability at iteration {iterations} (residual {residual})")
            }
            PageRankError::ResidentBudget { required, budget } => {
                write!(
                    f,
                    "streamed solve needs {required} resident bytes but the budget is {budget}"
                )
            }
            PageRankError::EdgeSource(msg) => write!(f, "edge source failed: {msg}"),
        }
    }
}

impl std::error::Error for PageRankError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(PageRankError::InvalidDamping(1.5).to_string().contains("damping"));
        assert!(PageRankError::JumpVectorLength { got: 3, expected: 5 }
            .to_string()
            .contains("length 3"));
        assert!(PageRankError::InvalidJumpVector("neg".into()).to_string().contains("neg"));
        let e = PageRankError::DidNotConverge { iterations: 500, residual: 1e-3 };
        assert!(e.to_string().contains("500 iterations"), "{e}");
        let e = PageRankError::Diverged { iterations: 7, residual: 42.0 };
        assert!(e.to_string().contains("diverging"), "{e}");
        let e = PageRankError::NumericalInstability { iterations: 3, residual: f64::NAN };
        assert!(e.to_string().contains("instability"), "{e}");
        let e = PageRankError::EdgeSource("block 3 checksum mismatch".into());
        assert!(e.to_string().contains("edge source failed: block 3"), "{e}");
    }
}
