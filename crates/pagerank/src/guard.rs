//! In-loop convergence surveillance shared by every solver.
//!
//! Each solver feeds its per-iteration L1 residual into a
//! [`ConvergenceGuard`], which turns three pathological shapes into typed
//! errors instead of letting them spin to the iteration cap (or worse,
//! return a silently poisoned score vector):
//!
//! * a non-finite residual ⇒ [`PageRankError::NumericalInstability`] — the
//!   L1 residual sums every score delta, so a single NaN/∞ anywhere in the
//!   iterate surfaces here immediately;
//! * a residual that keeps growing ⇒ [`PageRankError::Diverged`];
//! * the iteration cap without convergence ⇒
//!   [`PageRankError::DidNotConverge`] (raised by the solver, not the
//!   guard, since only the solver knows the cap was the stopping reason).

use crate::error::PageRankError;
use spammass_obs as obs;

/// Consecutive residual increases tolerated before checking for divergence.
/// Jacobi/Gauss–Seidel residuals can wiggle for a few iterations on graphs
/// with strong cyclic structure, so a single uptick is not conclusive.
const MAX_GROWTH_STREAK: usize = 5;

/// A residual this many times larger than the first observed residual,
/// combined with a sustained growth streak, is declared divergence.
///
/// Sound for the engine's in-place sweep at `c ≤ 0.9`: with the split
/// `cTᵀ = L + U` of `crate::chain`'s module docs, the step of sweep
/// `k ≥ 2` is `Δ_k = (I−L)⁻¹·U·Δ_{k−1} = (I−L)⁻¹·(U(I−L)⁻¹)^{k−2}·U·Δ_1`,
/// and `‖U‖₁ ≤ c`, `‖U(I−L)⁻¹‖₁ ≤ c`, `‖(I−L)⁻¹‖₁ ≤ 1/(1−c)` give
/// `‖Δ_k‖₁ ≤ c^{k−1}·‖Δ_1‖₁/(1−c) ≤ 10·‖Δ_1‖₁` — a converging solve's step
/// may rise after the first sweep, but never past this factor. The
/// residuals are the live rows' steps: rows without in-edges are written
/// before the first sweep, so `Δ_1` no longer holds their drop from the
/// start to `(1−c)·v`, and rows without out-links are finished after the
/// last. The derivation runs on the live system, whose `L` and `U` are
/// blocks of the full ones with the same non-negativity, triangularity
/// and column sums (`crate::chain`), so the same factor bounds it.
const DIVERGENCE_FACTOR: f64 = 10.0;

/// Tracks the residual sequence of one solve and reports pathologies.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConvergenceGuard {
    first: Option<f64>,
    prev: Option<f64>,
    growth_streak: usize,
}

impl ConvergenceGuard {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Feeds the residual of iteration `iterations`; returns an error if the
    /// sequence is provably not converging.
    pub(crate) fn observe(
        &mut self,
        iterations: usize,
        residual: f64,
    ) -> Result<(), PageRankError> {
        // The guard sees every residual of every solver, so it is the one
        // place the *exhaustive* series reaches telemetry (the in-result
        // history is thinned; see `ResidualHistory`).
        obs::observe("pagerank.residual", residual);
        if !residual.is_finite() {
            return Err(PageRankError::NumericalInstability { iterations, residual });
        }
        let first = *self.first.get_or_insert(residual);
        if let Some(prev) = self.prev {
            if residual > prev {
                self.growth_streak += 1;
            } else {
                self.growth_streak = 0;
            }
        }
        self.prev = Some(residual);
        if self.growth_streak >= MAX_GROWTH_STREAK && residual > DIVERGENCE_FACTOR * first {
            return Err(PageRankError::Diverged { iterations, residual });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_contracting_sequence() {
        let mut g = ConvergenceGuard::new();
        let mut r = 1.0;
        for i in 1..=50 {
            assert!(g.observe(i, r).is_ok());
            r *= 0.85;
        }
    }

    #[test]
    fn tolerates_transient_wiggles() {
        let mut g = ConvergenceGuard::new();
        for (i, r) in [1.0, 0.8, 0.9, 0.7, 0.75, 0.5, 0.6, 0.4].iter().enumerate() {
            assert!(g.observe(i + 1, *r).is_ok(), "iteration {}", i + 1);
        }
    }

    #[test]
    fn flags_nan_residual() {
        let mut g = ConvergenceGuard::new();
        assert!(g.observe(1, 0.5).is_ok());
        match g.observe(2, f64::NAN) {
            Err(PageRankError::NumericalInstability { iterations: 2, residual }) => {
                assert!(residual.is_nan());
            }
            other => panic!("expected NumericalInstability, got {other:?}"),
        }
    }

    #[test]
    fn flags_infinite_residual() {
        let mut g = ConvergenceGuard::new();
        assert!(matches!(
            g.observe(1, f64::INFINITY),
            Err(PageRankError::NumericalInstability { iterations: 1, .. })
        ));
    }

    #[test]
    fn flags_sustained_growth() {
        let mut g = ConvergenceGuard::new();
        let mut r = 1.0;
        let mut failed_at = None;
        for i in 1..=20 {
            if let Err(e) = g.observe(i, r) {
                assert!(matches!(e, PageRankError::Diverged { .. }), "{e:?}");
                failed_at = Some(i);
                break;
            }
            r *= 2.0;
        }
        let at = failed_at.expect("doubling residuals must be flagged as divergence");
        // Needs the streak AND the 10x-over-initial factor.
        assert!(at >= 6, "flagged too eagerly at iteration {at}");
    }

    #[test]
    fn growth_below_threshold_is_not_divergence() {
        // Grows for many iterations but stays under 10x the initial value.
        let mut g = ConvergenceGuard::new();
        let mut r = 1.0;
        for i in 1..=30 {
            assert!(g.observe(i, r).is_ok(), "iteration {i}");
            r *= 1.05;
        }
    }
}
