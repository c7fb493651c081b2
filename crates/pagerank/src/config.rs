//! Solver configuration.

/// Parameters of a linear PageRank solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor `c` — the probability of following a link rather than
    /// jumping. The paper uses `c = 0.85` throughout.
    pub damping: f64,
    /// Convergence tolerance `ε` on the L1 residual `‖p[i] − p[i−1]‖₁`.
    pub tolerance: f64,
    /// Iteration cap; the solve reports `converged = false` if reached.
    pub max_iterations: usize,
    /// Number of worker threads for the engine (`0` = all cores).
    ///
    /// This is an upper bound: the pool auto-sizer
    /// ([`crate::parallel::pool_threads`]) also caps the count by problem
    /// size so small graphs never pay barrier overhead for idle workers.
    pub threads: usize,
    /// Minimum edges each worker should own before another worker is
    /// worth its barrier traffic (`0` = the built-in default,
    /// [`crate::parallel::DEFAULT_EDGES_PER_THREAD`]). Lower it to force
    /// multi-worker execution on small graphs (tests do).
    pub edges_per_thread: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            tolerance: 1e-12,
            max_iterations: 1_000,
            threads: 0,
            edges_per_thread: 0,
        }
    }
}

impl PageRankConfig {
    /// Config with the given damping factor, paper-style defaults otherwise.
    pub fn with_damping(damping: f64) -> Self {
        PageRankConfig { damping, ..Default::default() }
    }

    /// Sets the tolerance, builder-style.
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Sets the iteration cap, builder-style.
    pub fn max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Sets the thread count, builder-style.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the per-worker edge quota used by the pool auto-sizer,
    /// builder-style (`0` = default).
    pub fn edges_per_thread(mut self, edges: usize) -> Self {
        self.edges_per_thread = edges;
        self
    }

    /// Validates parameter ranges; call before a long solve to fail fast.
    pub fn validate(&self) -> Result<(), crate::PageRankError> {
        if !(0.0..1.0).contains(&self.damping) {
            return Err(crate::PageRankError::InvalidDamping(self.damping));
        }
        if !self.tolerance.is_finite() || self.tolerance <= 0.0 {
            return Err(crate::PageRankError::InvalidTolerance(self.tolerance));
        }
        if self.max_iterations == 0 {
            return Err(crate::PageRankError::InvalidIterationCap);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = PageRankConfig::default();
        assert_eq!(c.damping, 0.85);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_methods() {
        let c = PageRankConfig::with_damping(0.5).tolerance(1e-6).max_iterations(10).threads(2);
        assert_eq!(c.damping, 0.5);
        assert_eq!(c.tolerance, 1e-6);
        assert_eq!(c.max_iterations, 10);
        assert_eq!(c.threads, 2);
    }

    #[test]
    fn validate_rejects_bad_params() {
        assert!(PageRankConfig::with_damping(1.0).validate().is_err());
        assert!(PageRankConfig::with_damping(-0.1).validate().is_err());
        assert!(PageRankConfig::default().tolerance(0.0).validate().is_err());
        assert!(PageRankConfig::default().tolerance(f64::NAN).validate().is_err());
        assert!(PageRankConfig::default().max_iterations(0).validate().is_err());
    }
}
