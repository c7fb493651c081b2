//! Bounded residual history with deterministic downsampling.
//!
//! Every solver records its per-iteration L1 residual so callers can
//! inspect convergence behavior. Storing the raw series is `O(cap)` in the
//! iteration cap — harmless at the default 1 000 iterations, but an
//! unbounded allocation when a caller cranks the cap for a hard instance
//! (the power-iteration cross-validation runs were the first to hit this).
//!
//! [`ResidualHistory`] bounds the memory at a fixed sample budget using
//! **stride doubling**: residuals are kept at iterations
//! `1, 1+s, 1+2s, …`; when the budget fills, every other retained sample
//! is dropped and the stride doubles. The result is a deterministic,
//! roughly uniform thinning of the series (a reservoir with predictable
//! rather than random victims), always ≤ the budget, that still spans the
//! whole solve. The final residual is tracked separately so it is never
//! lost to thinning. The *full* series remains available through the
//! telemetry histogram (`pagerank.residual`) fed by the convergence guard.

/// Default retained-sample budget. 256 points profile a million-iteration
/// solve at ~4 KiB while leaving typical (converging) solves exhaustive.
const DEFAULT_CAP: usize = 256;

/// A bounded per-iteration residual series.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualHistory {
    /// Retained `(iteration, residual)` samples; iterations are 1-based.
    samples: Vec<(usize, f64)>,
    /// Current sampling stride: residuals at iterations `≡ 1 (mod stride)`
    /// are retained.
    stride: usize,
    /// Total residuals observed (the solve's iteration count so far).
    observed: usize,
    /// The most recent observation, kept regardless of the stride.
    last: Option<(usize, f64)>,
    cap: usize,
}

impl Default for ResidualHistory {
    fn default() -> Self {
        Self::new()
    }
}

impl ResidualHistory {
    /// Heap bytes a [`new`](Self::new) history reserves.
    pub(crate) const DEFAULT_BYTES: usize = DEFAULT_CAP * std::mem::size_of::<(usize, f64)>();

    /// An empty history with the default sample budget.
    pub fn new() -> Self {
        Self::with_budget(DEFAULT_CAP)
    }

    /// An empty history retaining at most `budget` samples (minimum 2:
    /// one retained sample plus the separately-tracked last).
    pub fn with_budget(budget: usize) -> Self {
        // Reserve the full budget up front (≤ ~4 KiB at the default cap):
        // thinning keeps `samples.len() < cap`, so `push` never
        // reallocates and the solver iteration loops stay allocation-free.
        ResidualHistory {
            samples: Vec::with_capacity(budget.max(2)),
            stride: 1,
            observed: 0,
            last: None,
            cap: budget.max(2),
        }
    }

    /// Records the residual of the next iteration.
    pub fn push(&mut self, residual: f64) {
        self.observed += 1;
        let iteration = self.observed;
        self.last = Some((iteration, residual));
        if (iteration - 1).is_multiple_of(self.stride) {
            self.samples.push((iteration, residual));
            if self.samples.len() >= self.cap {
                // Budget full: thin to every other sample, double the
                // stride. Survivors stay `≡ 1 (mod stride)` so future
                // pushes extend the same lattice.
                let mut i = 0usize;
                self.samples.retain(|_| {
                    let keep = i.is_multiple_of(2);
                    i += 1;
                    keep
                });
                self.stride *= 2;
            }
        }
    }

    /// Total iterations observed (not the retained count).
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Whether no residual has been recorded.
    pub fn is_empty(&self) -> bool {
        self.observed == 0
    }

    /// Current sampling stride (1 while the series is exhaustive).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The most recent residual.
    pub fn last(&self) -> Option<f64> {
        self.last.map(|(_, r)| r)
    }

    /// The retained `(iteration, residual)` samples, ascending by
    /// iteration. May omit the final iteration; see [`Self::series`].
    pub fn samples(&self) -> &[(usize, f64)] {
        &self.samples
    }

    /// The retained samples with the final observation appended when
    /// thinning dropped it — the series to plot or report.
    pub fn series(&self) -> Vec<(usize, f64)> {
        let mut out = self.samples.clone();
        if let Some(last) = self.last {
            if out.last().map(|&(i, _)| i < last.0).unwrap_or(true) {
                out.push(last);
            }
        }
        out
    }

    /// Estimated geometric per-iteration convergence rate: the mean of
    /// `(r₂/r₁)^(1/(i₂−i₁))` over the last few sample pairs (`≈ c` for
    /// Jacobi, smaller for Gauss–Seidel). Stride-aware, so thinning does
    /// not bias the estimate. `None` with fewer than three observations.
    pub fn convergence_rate(&self) -> Option<f64> {
        if self.observed < 3 {
            return None;
        }
        let series = self.series();
        let tail = &series[series.len().saturating_sub(6)..];
        let ratios: Vec<f64> = tail
            .windows(2)
            .filter(|w| w[0].1 > 0.0 && w[1].1 > 0.0 && w[1].0 > w[0].0)
            .map(|w| (w[1].1 / w[0].1).powf(1.0 / (w[1].0 - w[0].0) as f64))
            .collect();
        if ratios.is_empty() {
            return None;
        }
        Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_below_budget() {
        let mut h = ResidualHistory::with_budget(16);
        for i in 1..=10 {
            h.push(1.0 / i as f64);
        }
        assert_eq!(h.stride(), 1);
        assert_eq!(h.observed(), 10);
        assert_eq!(h.samples().len(), 10);
        assert_eq!(h.samples()[0], (1, 1.0));
        assert_eq!(h.last(), Some(0.1));
        assert_eq!(h.series().len(), 10);
    }

    #[test]
    fn thinning_bounds_memory_and_doubles_stride() {
        let mut h = ResidualHistory::with_budget(8);
        for i in 1..=1000 {
            h.push(1000.0 - i as f64);
        }
        assert_eq!(h.observed(), 1000);
        assert!(h.samples().len() < 8, "{}", h.samples().len());
        // Stride is a power of two and samples sit on the lattice.
        assert!(h.stride().is_power_of_two() && h.stride() > 1);
        for &(i, _) in h.samples() {
            assert_eq!((i - 1) % h.stride(), 0, "iteration {i} off stride {}", h.stride());
        }
        // Samples remain ascending and span the solve.
        let iters: Vec<usize> = h.samples().iter().map(|&(i, _)| i).collect();
        assert!(iters.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(iters[0], 1);
        // The final residual survives thinning via the series view.
        let series = h.series();
        assert_eq!(series.last().unwrap(), &(1000, 0.0));
    }

    #[test]
    fn budget_is_clamped_to_two() {
        let mut h = ResidualHistory::with_budget(0);
        for _ in 0..100 {
            h.push(1.0);
        }
        assert!(h.samples().len() <= 2);
        assert_eq!(h.observed(), 100);
    }

    #[test]
    fn convergence_rate_matches_geometric_decay() {
        // r_i = 0.85^i: the per-iteration rate must come out ≈ 0.85, with
        // and without thinning.
        for budget in [1024, 8] {
            let mut h = ResidualHistory::with_budget(budget);
            let mut r = 1.0;
            for _ in 0..600 {
                r *= 0.85;
                // Guard against denormal underflow skewing the tail.
                if r < 1e-300 {
                    break;
                }
                h.push(r);
            }
            let rate = h.convergence_rate().unwrap();
            assert!((rate - 0.85).abs() < 1e-6, "budget {budget}: rate {rate}");
        }
    }

    #[test]
    fn convergence_rate_needs_three_observations() {
        let mut h = ResidualHistory::new();
        assert_eq!(h.convergence_rate(), None);
        h.push(1.0);
        h.push(0.5);
        assert_eq!(h.convergence_rate(), None);
        h.push(0.25);
        assert!(h.convergence_rate().is_some());
    }
}
