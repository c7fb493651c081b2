//! Solver fallback chains with per-attempt diagnostics.
//!
//! The strict solvers ([`solve_jacobi`](crate::jacobi::solve_jacobi) & co.)
//! turn a failed solve into a typed error. A [`SolverChain`] layers graceful
//! degradation on top: it runs a configured sequence of (solver, config)
//! attempts, returning the first success together with a structured
//! [`AttemptReport`] for every attempt made — so a pipeline can log *why*
//! the primary solver was abandoned, not just that it was.
//!
//! A typical chain retries with a different iteration structure first
//! (Gauss–Seidel propagates updates within a sweep, so it converges where
//! Jacobi stalls against a tight cap) and only then relaxes the problem
//! itself (a slightly smaller damping factor contracts faster at the cost
//! of solving a more-damped system — acceptable as a flagged last resort,
//! never silently).

use crate::config::PageRankConfig;
use crate::error::PageRankError;
use crate::jump::JumpVector;
use crate::{batch, gauss_seidel, jacobi, power, PageRankResult};
use spammass_graph::Graph;
use spammass_obs as obs;
use std::fmt;

/// Which solver implementation an attempt uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Serial Jacobi — Algorithm 1 of the paper.
    Jacobi,
    /// Gauss–Seidel in-place sweeps.
    GaussSeidel,
    /// The production engine ([`solve_batch`](crate::solve_batch) with
    /// one column): thread-parallel Jacobi.
    ParallelJacobi,
    /// Power iteration on the augmented matrix (requires `‖v‖₁ = 1`).
    Power,
}

impl SolverKind {
    /// Stable human-readable name (matches the CLI `--solver` values).
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::Jacobi => "jacobi",
            SolverKind::GaussSeidel => "gauss-seidel",
            SolverKind::ParallelJacobi => "parallel",
            SolverKind::Power => "power",
        }
    }

    /// Runs this solver.
    ///
    /// # Errors
    /// Propagates the underlying solver's error.
    pub fn solve(
        &self,
        graph: &Graph,
        jump: &JumpVector,
        config: &PageRankConfig,
    ) -> Result<PageRankResult, PageRankError> {
        match self {
            SolverKind::Jacobi => jacobi::solve_jacobi(graph, jump, config),
            SolverKind::GaussSeidel => gauss_seidel::solve_gauss_seidel(graph, jump, config),
            SolverKind::ParallelJacobi => {
                let mut columns = batch::solve_batch(graph, std::slice::from_ref(jump), config)?;
                Ok(columns.pop().expect("one jump vector yields one column"))
            }
            SolverKind::Power => power::solve_power(graph, jump, config),
        }
    }
}

impl fmt::Display for SolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of one chain attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// The attempt converged.
    Succeeded {
        /// Iterations the successful solve took.
        iterations: usize,
        /// Final residual.
        residual: f64,
    },
    /// The attempt failed with the contained error.
    Failed(PageRankError),
}

/// Diagnostics for one attempt in a chain solve.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptReport {
    /// Solver used.
    pub solver: SolverKind,
    /// Configuration of the attempt.
    pub config: PageRankConfig,
    /// What happened.
    pub outcome: AttemptOutcome,
}

impl fmt::Display for AttemptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            AttemptOutcome::Succeeded { iterations, residual } => write!(
                f,
                "{} (c={}, cap={}): converged in {iterations} iterations (residual {residual:.3e})",
                self.solver, self.config.damping, self.config.max_iterations
            ),
            AttemptOutcome::Failed(e) => write!(
                f,
                "{} (c={}, cap={}): {e}",
                self.solver, self.config.damping, self.config.max_iterations
            ),
        }
    }
}

/// A successful chain solve: the winning result plus every attempt made.
#[derive(Debug, Clone)]
pub struct ChainSolve {
    /// Result of the first attempt that converged.
    pub result: PageRankResult,
    /// Reports for all attempts, in order; the last one succeeded.
    pub attempts: Vec<AttemptReport>,
}

impl ChainSolve {
    /// The attempt that produced [`result`](ChainSolve::result).
    pub fn winner(&self) -> &AttemptReport {
        self.attempts.last().expect("a ChainSolve always records at least the winning attempt")
    }

    /// Whether any fallback was needed (i.e. the first attempt failed).
    pub fn degraded(&self) -> bool {
        self.attempts.len() > 1
    }
}

/// Every attempt in a chain failed.
#[derive(Debug, Clone)]
pub struct ChainError {
    /// Reports for all failed attempts, in order.
    pub attempts: Vec<AttemptReport>,
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "all {} solver attempts failed:", self.attempts.len())?;
        for a in &self.attempts {
            write!(f, "\n  {a}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ChainError {}

/// A configurable sequence of solver attempts tried in order.
#[derive(Debug, Clone)]
pub struct SolverChain {
    attempts: Vec<(SolverKind, PageRankConfig)>,
}

impl SolverChain {
    /// Chain with a single initial attempt.
    pub fn new(solver: SolverKind, config: PageRankConfig) -> Self {
        SolverChain { attempts: vec![(solver, config)] }
    }

    /// Appends a fallback attempt, builder-style.
    #[must_use]
    pub fn then(mut self, solver: SolverKind, config: PageRankConfig) -> Self {
        self.attempts.push((solver, config));
        self
    }

    /// The default hardened chain for a base configuration:
    ///
    /// 1. Jacobi with the base config (the paper's Algorithm 1);
    /// 2. Gauss–Seidel with a doubled iteration cap (different iteration
    ///    structure, ~2× faster convergence on the same problem);
    /// 3. Jacobi with a doubled cap and damping tightened by 5% — this
    ///    solves a slightly more-damped system, so it is a last resort that
    ///    the [`AttemptReport`] makes visible to the caller.
    pub fn recommended(base: PageRankConfig) -> Self {
        let widened = base.max_iterations(base.max_iterations.saturating_mul(2).max(1));
        let mut relaxed = widened;
        relaxed.damping = base.damping * 0.95;
        SolverChain::new(SolverKind::Jacobi, base)
            .then(SolverKind::GaussSeidel, widened)
            .then(SolverKind::Jacobi, relaxed)
    }

    /// The configured attempts, in order.
    pub fn attempts(&self) -> &[(SolverKind, PageRankConfig)] {
        &self.attempts
    }

    /// Runs the chain: attempts are tried in order and the first success is
    /// returned along with per-attempt diagnostics.
    ///
    /// # Errors
    /// [`ChainError`] carrying every attempt's report if all attempts fail
    /// (or the chain is empty).
    pub fn solve(&self, graph: &Graph, jump: &JumpVector) -> Result<ChainSolve, ChainError> {
        let mut span = obs::span("pagerank.chain");
        let mut reports = Vec::with_capacity(self.attempts.len());
        for (attempt, (solver, config)) in self.attempts.iter().enumerate() {
            span.record("attempts", 1.0);
            match solver.solve(graph, jump, config) {
                Ok(result) => {
                    let report = AttemptReport {
                        solver: *solver,
                        config: *config,
                        outcome: AttemptOutcome::Succeeded {
                            iterations: result.iterations,
                            residual: result.residual,
                        },
                    };
                    emit_attempt_event(attempt, &report);
                    reports.push(report);
                    return Ok(ChainSolve { result, attempts: reports });
                }
                Err(e) => {
                    let report = AttemptReport {
                        solver: *solver,
                        config: *config,
                        outcome: AttemptOutcome::Failed(e),
                    };
                    emit_attempt_event(attempt, &report);
                    reports.push(report);
                }
            }
        }
        Err(ChainError { attempts: reports })
    }
}

/// Emits one `pagerank.chain.attempt` telemetry event (no-op with no
/// collector installed).
fn emit_attempt_event(attempt: usize, report: &AttemptReport) {
    use obs::Json;
    let mut fields = vec![
        ("attempt".to_string(), Json::uint(attempt as u64)),
        ("solver".to_string(), Json::str(report.solver.name())),
        ("damping".to_string(), Json::num(report.config.damping)),
        ("max_iterations".to_string(), Json::uint(report.config.max_iterations as u64)),
    ];
    match &report.outcome {
        AttemptOutcome::Succeeded { iterations, residual } => {
            fields.push(("outcome".to_string(), Json::str("converged")));
            fields.push(("iterations".to_string(), Json::uint(*iterations as u64)));
            fields.push(("residual".to_string(), Json::num(*residual)));
        }
        AttemptOutcome::Failed(e) => {
            fields.push(("outcome".to_string(), Json::str("failed")));
            fields.push(("error".to_string(), Json::str(e.to_string())));
        }
    }
    obs::event("pagerank.chain.attempt", fields);
}

#[cfg(test)]
mod tests {
    use super::*;
    use spammass_graph::GraphBuilder;

    fn cfg() -> PageRankConfig {
        PageRankConfig::default()
    }

    fn chain_graph() -> spammass_graph::Graph {
        let edges: Vec<(u32, u32)> = (0..99).map(|i| (i, i + 1)).collect();
        GraphBuilder::from_edges(100, &edges)
    }

    #[test]
    fn first_attempt_wins_when_healthy() {
        let g = chain_graph();
        let s = SolverChain::recommended(cfg()).solve(&g, &JumpVector::Uniform).unwrap();
        assert!(!s.degraded());
        assert_eq!(s.attempts.len(), 1);
        assert_eq!(s.winner().solver, SolverKind::Jacobi);
        assert!(matches!(s.winner().outcome, AttemptOutcome::Succeeded { .. }));
    }

    #[test]
    fn falls_back_when_primary_cap_is_too_tight() {
        // A 100-node chain needs ~100 Jacobi sweeps to propagate mass to
        // the tail; Gauss–Seidel does it in far fewer. Cap at 60 so the
        // primary fails and the fallback succeeds on the SAME problem.
        let g = chain_graph();
        let base = cfg().max_iterations(60).tolerance(1e-12);
        let chain = SolverChain::new(SolverKind::Jacobi, base).then(SolverKind::GaussSeidel, base);
        let s = chain.solve(&g, &JumpVector::Uniform).unwrap();
        assert!(s.degraded());
        assert_eq!(s.attempts.len(), 2);
        assert!(matches!(
            s.attempts[0].outcome,
            AttemptOutcome::Failed(PageRankError::DidNotConverge { iterations: 60, .. })
        ));
        assert_eq!(s.winner().solver, SolverKind::GaussSeidel);
        assert!(s.result.converged);
    }

    #[test]
    fn exhausted_chain_reports_every_attempt() {
        let g = chain_graph();
        let hopeless = cfg().max_iterations(1).tolerance(1e-300);
        let chain =
            SolverChain::new(SolverKind::Jacobi, hopeless).then(SolverKind::GaussSeidel, hopeless);
        let err = chain.solve(&g, &JumpVector::Uniform).unwrap_err();
        assert_eq!(err.attempts.len(), 2);
        for a in &err.attempts {
            assert!(matches!(a.outcome, AttemptOutcome::Failed(_)));
        }
        let msg = err.to_string();
        assert!(msg.contains("all 2 solver attempts failed"), "{msg}");
        assert!(msg.contains("jacobi") && msg.contains("gauss-seidel"), "{msg}");
    }

    #[test]
    fn recommended_chain_shape() {
        let chain = SolverChain::recommended(cfg());
        let attempts = chain.attempts();
        assert_eq!(attempts.len(), 3);
        assert_eq!(attempts[0].0, SolverKind::Jacobi);
        assert_eq!(attempts[1].0, SolverKind::GaussSeidel);
        assert_eq!(attempts[2].0, SolverKind::Jacobi);
        assert!(attempts[2].1.damping < attempts[0].1.damping);
        assert!(attempts[1].1.max_iterations > attempts[0].1.max_iterations);
    }

    #[test]
    fn chain_emits_attempt_events_and_residual_telemetry() {
        use std::sync::Arc;
        let recorder = Arc::new(obs::Recorder::new());
        let collector = obs::Collector::builder().sink(recorder.clone()).build();
        let g = chain_graph();
        let base = cfg().max_iterations(60).tolerance(1e-12);
        let chain = SolverChain::new(SolverKind::Jacobi, base).then(SolverKind::GaussSeidel, base);
        {
            let _guard = collector.install();
            chain.solve(&g, &JumpVector::Uniform).unwrap();
        }
        let messages = recorder.messages();
        assert_eq!(messages.len(), 2);
        let outcome =
            |idx: usize| messages[idx].1.iter().find(|(k, _)| k == "outcome").unwrap().1.clone();
        assert_eq!(messages[0].0, "pagerank.chain.attempt");
        assert_eq!(outcome(0), obs::Json::str("failed"));
        assert_eq!(outcome(1), obs::Json::str("converged"));
        // Solver spans nest under the chain span.
        let spans = recorder.spans();
        assert!(spans.iter().any(|s| s.path == "pagerank.chain.pagerank.solve.jacobi"));
        assert!(spans.iter().any(|s| s.path == "pagerank.chain.pagerank.solve.gauss_seidel"));
        // The guard fed every iteration's residual into the histogram —
        // more samples than the (thinned) in-result history can hold.
        let metrics = collector.metrics_snapshot();
        let residuals = metrics.iter().find(|(k, _)| k == "pagerank.residual").unwrap();
        match &residuals.1 {
            obs::Metric::Histogram(h) => assert!(h.count() >= 60, "{}", h.count()),
            other => panic!("expected histogram, got {}", other.kind()),
        }
    }

    #[test]
    fn solver_kind_names_are_cli_compatible() {
        assert_eq!(SolverKind::Jacobi.name(), "jacobi");
        assert_eq!(SolverKind::GaussSeidel.name(), "gauss-seidel");
        assert_eq!(SolverKind::ParallelJacobi.name(), "parallel");
        assert_eq!(SolverKind::Power.name(), "power");
        assert_eq!(SolverKind::Power.to_string(), "power");
    }

    #[test]
    fn attempt_report_display_is_informative() {
        let r = AttemptReport {
            solver: SolverKind::Jacobi,
            config: cfg(),
            outcome: AttemptOutcome::Failed(PageRankError::DidNotConverge {
                iterations: 9,
                residual: 0.5,
            }),
        };
        let s = r.to_string();
        assert!(s.contains("jacobi") && s.contains("9 iterations"), "{s}");
    }
}
