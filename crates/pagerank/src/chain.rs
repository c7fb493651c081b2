//! The production solve: every column through the engine, behind one
//! retry rule.
//!
//! [`solve_columns`] is what the estimator, the updater, the baselines
//! and the CLI call. It runs [`solve_batch_warm`] on all columns together
//! and, when that fails, decides from the failure itself whether a second
//! run can succeed:
//!
//! * **The cap was hit** ([`PageRankError::DidNotConverge`] with a finite
//!   last step `r`): the same system is solved once more from the same
//!   start with the cap the failed run's own step asks for,
//!   `cap + ⌈ln(ε·(1−c) / r) / ln c⌉ + 1` — derived below. The run is
//!   deterministic up to the old cap, so the second one passes through
//!   the first one's last state, and that many further sweeps bring the
//!   step under `ε` whenever `ε` is reachable in floating point. The
//!   extra sweeps are clamped as [`estimated_sweeps`] clamps, so a damping
//!   factor next to one cannot ask for a solve that never returns.
//! * **Anything else** — a tripped guard, invalid input — is returned at
//!   once: a deterministic solve of the same system from the same start
//!   fails the same way.
//!
//! Every attempt solves the configured system: the damping factor, the
//! tolerance and the start never change, only the cap. Each attempt leaves
//! an [`AttemptReport`] (and a `pagerank.chain.attempt` event), so a
//! pipeline can say that a cap was too tight and what cap was needed.
//!
//! ## Why the rule holds for the in-place sweep
//!
//! The engine stops on the step `Δ = p_k − p_{k−1}`: a column converges
//! when `‖Δ‖₁ < ε`. Split `cTᵀ = L + U`, where `L` holds the in-edges a
//! sweep reads *fresh* — from a row its own worker relaxed earlier in the
//! same sweep — and `U` the rest. Order the rows as they are relaxed:
//! worker 0's, then worker 1's, and so on. In that order
//! `L` is strictly lower triangular, `L, U ≥ 0`, and every column sum of
//! `L + U` is at most `c` (`T` is substochastic). A sweep computes
//! `p_k = (1−c)v + L·p_k + U·p_{k−1}`.
//!
//! * **(a) The step bounds the true residual.** The linear-system
//!   residual after a sweep is `r_k = (1−c)v + cTᵀp_k − p_k = U·Δ_k`, so
//!   `‖r_k‖₁ ≤ c·‖Δ_k‖₁`, and `‖p_k − p*‖₁ ≤ ‖r_k‖₁ / (1−c)`. Stopping on
//!   the step therefore bounds the error without a closing Jacobi sweep.
//! * **(b) The residual contracts by `c` a sweep on any graph.**
//!   `Δ_{k+1} = (I−L)⁻¹·r_k`, so `r_{k+1} = U(I−L)⁻¹·r_k`. Every column
//!   sum `t_x` of `U(I−L)⁻¹` is at most `c`: with `u_x`, `l_x` the column
//!   sums of `U`, `L` (`u_x + l_x ≤ c`), `t_x = u_x + Σ_y t_y·L[y][x]`, and
//!   by induction from the last-relaxed row (whose `L` column is empty)
//!   `t_x ≤ u_x + c·l_x ≤ c`.
//! * **(c) The cap.** `‖(I−L)⁻¹‖₁ ≤ Σ ‖L‖₁ⁱ ≤ 1/(1−c)`, so `m` sweeps after
//!   a step `r` the step is at most `c^m·r / (1−c)`. It is below `ε` once
//!   `m ≥ ln(ε·(1−c) / r) / ln c`; one more sweep absorbs the rounding of
//!   the residual sum. At `c = 0.85` the `1−c` costs 12 sweeps over the
//!   Jacobi-era cap `⌈ln(ε / r) / ln c⌉`. (For the Jacobi sweep, `L = 0`.)
//!
//! **Only the live rows are swept** (`crate::engine`), and the three
//! claims are about them. A *fixed* row (no in-edges) is written
//! `(1−c)·v[y]` before the first sweep: its equation holds exactly and its
//! contribution is a constant the sweeps read. A *terminal* row (no
//! out-links) contributes nothing to any row, so the live rows' system
//! does not contain it; the finish round after the last sweep sets it to
//! `(1−c)·v[y] + Σ q[x]` from the final contributions, so its equation
//! holds to the rounding of that sum. The sweeps therefore run the
//! in-place iteration on the live system
//! `p_live = (1−c)·v_live + b + c·T_liveᵀ·p_live`, `b` the fixed rows'
//! constant inflow, whose `L` and `U` are the live-by-live blocks of the
//! ones above — still non-negative, `L` still strictly lower triangular in
//! relaxation order, every column sum of `L + U` still at most `c`. So
//! (a)–(c) hold with `Δ` the live rows' step — the residual the verdicts
//! see — and over all rows `‖r‖₁ ≤ c·‖Δ_live‖₁` up to the terminal rows'
//! rounding. [`retry_cap`] is unchanged: it reads only `r`, `ε` and `c`.

use crate::batch::solve_batch_warm;
use crate::config::PageRankConfig;
use crate::error::PageRankError;
use crate::jump::JumpVector;
use crate::parallel::estimated_sweeps;
use crate::PageRankResult;
use spammass_graph::Graph;
use spammass_obs as obs;
use std::fmt;

/// Outcome of one attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// Every column converged.
    Succeeded {
        /// Sweeps the slowest column took.
        iterations: usize,
        /// Largest final residual among the columns.
        residual: f64,
    },
    /// The attempt failed with the contained error.
    Failed(PageRankError),
}

/// Diagnostics for one attempt of [`solve_columns`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptReport {
    /// Configuration of the attempt, shared by all its columns; only
    /// `max_iterations` ever differs from the caller's.
    pub config: PageRankConfig,
    /// What happened.
    pub outcome: AttemptOutcome,
}

impl fmt::Display for AttemptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c={}, cap={}: ", self.config.damping, self.config.max_iterations)?;
        match &self.outcome {
            AttemptOutcome::Succeeded { iterations, residual } => {
                write!(f, "converged in {iterations} iterations (residual {residual:.3e})")
            }
            AttemptOutcome::Failed(e) => write!(f, "{e}"),
        }
    }
}

/// A successful [`solve_columns`]: the columns plus every attempt made.
#[derive(Debug, Clone)]
pub struct ChainSolve {
    /// One result per jump vector, in order, all from the last attempt.
    pub columns: Vec<PageRankResult>,
    /// Reports for all attempts, in order; the last one succeeded.
    pub attempts: Vec<AttemptReport>,
}

impl ChainSolve {
    /// The iteration cap of the attempt that converged: the configured
    /// one, or the one the retry rule worked out.
    pub fn cap(&self) -> usize {
        self.attempts.last().expect("the attempt that converged is recorded").config.max_iterations
    }
}

/// [`solve_columns`] failed; carries the report of every attempt.
#[derive(Debug, Clone)]
pub struct ChainError {
    /// Reports for all failed attempts, in order.
    pub attempts: Vec<AttemptReport>,
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.attempts.len();
        write!(f, "solve failed after {n} attempt{}:", if n == 1 { "" } else { "s" })?;
        for a in &self.attempts {
            write!(f, "\n  {a}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ChainError {}

/// Solves `(I − c·Tᵀ)pⱼ = (1 − c)vⱼ` for every jump vector — from
/// `initial[j]` when seeds are given — under the retry rule of the
/// [module docs](self).
///
/// # Errors
/// [`ChainError`] with one report when the failure cannot be retried,
/// with two when the second attempt failed as well.
pub fn solve_columns(
    graph: &Graph,
    jumps: &[JumpVector],
    initial: Option<&[Vec<f64>]>,
    config: &PageRankConfig,
) -> Result<ChainSolve, ChainError> {
    let mut span = obs::span("pagerank.chain");
    let mut attempts = Vec::with_capacity(1);
    let mut config = *config;
    loop {
        span.record("attempts", 1.0);
        let solved = solve_batch_warm(graph, jumps, initial, &config);
        let outcome = match &solved {
            Ok(columns) => AttemptOutcome::Succeeded {
                iterations: columns.iter().map(|r| r.iterations).max().unwrap_or(0),
                residual: columns.iter().map(|r| r.residual).fold(0.0, f64::max),
            },
            Err(e) => AttemptOutcome::Failed(e.clone()),
        };
        let report = AttemptReport { config, outcome };
        emit_attempt_event(attempts.len(), &report);
        attempts.push(report);
        match solved {
            Ok(columns) => return Ok(ChainSolve { columns, attempts }),
            Err(PageRankError::DidNotConverge { residual, .. })
                if attempts.len() == 1 && residual.is_finite() =>
            {
                config.max_iterations = retry_cap(&config, residual);
            }
            Err(_) => return Err(ChainError { attempts }),
        }
    }
}

/// The cap a run that stopped at `config.max_iterations` with L1 step
/// `residual` needs to reach the tolerance: by (b) and (c) of the
/// [module docs](self), `⌈ln(ε·(1−c) / r) / ln c⌉` more sweeps, plus one
/// for the rounding of the residual sum.
fn retry_cap(config: &PageRankConfig, residual: f64) -> usize {
    let c = config.damping;
    let more = estimated_sweeps(config.tolerance * (1.0 - c) / residual, c);
    config.max_iterations.saturating_add(more).saturating_add(1)
}

/// Emits one `pagerank.chain.attempt` telemetry event (no-op with no
/// collector installed).
fn emit_attempt_event(attempt: usize, report: &AttemptReport) {
    use obs::Json;
    let mut fields = vec![
        ("attempt".to_string(), Json::uint(attempt as u64)),
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
    use crate::batch::solve_batch;
    use spammass_graph::{GraphBuilder, NodeId};

    fn cfg() -> PageRankConfig {
        PageRankConfig::default()
    }

    /// 99 → 98 → … → 0: every link points to an older id, so no in-edge
    /// is read fresh and the in-place sweep, like Jacobi, needs a sweep
    /// per live node to reach the tail.
    fn chain_graph() -> Graph {
        chain_of(100)
    }

    /// `n − 1 → … → 0`. Its ends leave the sweep — `n − 1` has no
    /// in-edges, `0` no out-links — so the uniform column takes about
    /// `n − 2` sweeps.
    fn chain_of(n: u32) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i + 1, i)).collect();
        GraphBuilder::from_edges(n as usize, &edges)
    }

    /// 66k nodes in two unequal sides with five random out-links each,
    /// all of them across: `Tᵀ` has the eigenvalue −1. A Jacobi sweep shrinks the residual by
    /// exactly `c` here — the slowest bound (b) allows — and ends in a
    /// last-bit two-state cycle (1.19e-20). The in-place sweep reads the
    /// sides' cross edges fresh wherever one worker relaxed the source
    /// first: 37 sweeps to 1e-6 on one worker, 50 on two, and an exact
    /// fixed point (step 0.0) after 138 and 228.
    fn bipartite_graph() -> Graph {
        let (n, a) = (66_000u32, 22_000u32);
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut b = GraphBuilder::with_capacity(n as usize, 5 * n as usize);
        for x in 0..n {
            for _ in 0..5 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let t = if x < a {
                    a + (state % (n - a) as u64) as u32
                } else {
                    (state % a as u64) as u32
                };
                b.add_edge(NodeId(x), NodeId(t));
            }
        }
        b.build()
    }

    /// `cap + ⌈ln(ε·(1−c) / r) / ln c⌉ + 1` from a failed first attempt's
    /// report.
    fn cap_the_rule_asks_for(first: &AttemptReport) -> usize {
        let AttemptOutcome::Failed(PageRankError::DidNotConverge { iterations, residual }) =
            first.outcome
        else {
            panic!("first attempt should have hit its cap: {first}");
        };
        assert_eq!(iterations, first.config.max_iterations);
        let c = first.config.damping;
        let more = ((first.config.tolerance * (1.0 - c) / residual).ln() / c.ln()).ceil();
        iterations + more as usize + 1
    }

    /// `tight` fails on its cap; the second attempt is the same config
    /// with the rule's cap and lands on the uncapped solve.
    fn assert_rescued(g: &Graph, jumps: &[JumpVector], tight: PageRankConfig) {
        let uncapped = solve_batch(g, jumps, &tight.max_iterations(100_000)).unwrap();
        let s = solve_columns(g, jumps, None, &tight).unwrap();
        assert_eq!(s.attempts.len(), 2, "{:?}", s.attempts);
        assert_eq!(s.attempts[0].config, tight);
        let cap = cap_the_rule_asks_for(&s.attempts[0]);
        assert_eq!(s.attempts[1].config, tight.max_iterations(cap), "only the cap changes");
        assert_eq!(s.cap(), cap);
        assert!(matches!(s.attempts[1].outcome, AttemptOutcome::Succeeded { .. }));
        assert_eq!(s.columns.len(), jumps.len());
        for (col, want) in s.columns.iter().zip(&uncapped) {
            assert!(col.converged && col.iterations <= cap);
            assert_eq!(col.iterations, want.iterations);
            for (a, b) in col.scores.iter().zip(&want.scores) {
                assert!((a - b).abs() <= 1e-12, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn first_attempt_wins_when_healthy() {
        let s = solve_columns(&chain_graph(), &[JumpVector::Uniform], None, &cfg()).unwrap();
        assert_eq!(s.attempts.len(), 1);
        assert_eq!(s.attempts[0].config, cfg());
        assert_eq!(s.cap(), cfg().max_iterations);
        let AttemptOutcome::Succeeded { iterations, residual } = s.attempts[0].outcome else {
            panic!("{}", s.attempts[0]);
        };
        assert_eq!((iterations, residual), (s.columns[0].iterations, s.columns[0].residual));
    }

    #[test]
    fn a_cap_one_sweep_short_is_rescued() {
        // Cycles and a dangling node; the core column needs fewer sweeps
        // than the uniform one, the cap is one short of the slower.
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let jumps = [JumpVector::Uniform, JumpVector::core(vec![NodeId(0)], 6)];
        let needed = solve_batch(&g, &jumps, &cfg()).unwrap().iter().map(|r| r.iterations).max();
        assert_rescued(&g, &jumps, cfg().max_iterations(needed.unwrap() - 1));
    }

    #[test]
    fn chain_graph_at_cap_60_is_rescued_with_both_columns_from_one_attempt() {
        // The uniform column needs ~100 sweeps, the tail's own
        // contribution two: the batch fails as one and is retried as one.
        let jumps = [JumpVector::Uniform, JumpVector::SingleNode { node: NodeId(0), mass: 0.01 }];
        assert_rescued(&chain_graph(), &jumps, cfg().max_iterations(60).tolerance(1e-12));
    }

    #[test]
    fn engine_sized_solves_follow_the_rule() {
        let g = bipartite_graph();
        let jumps =
            [JumpVector::Uniform, JumpVector::core((0..6_600).map(NodeId).collect(), 66_000)];
        for threads in [1usize, 2] {
            let base = cfg().threads(threads).edges_per_thread(1);
            assert_rescued(&g, &jumps, base.tolerance(1e-6).max_iterations(20));
            // 1e-30 is under the Jacobi sweep's floating-point floor here;
            // the in-place sweep reaches its fixed point exactly, so the
            // rule's cap — 360 and more sweeps past the first 40 — rescues
            // it as well.
            assert_rescued(&g, &jumps, base.tolerance(1e-30).max_iterations(40));
        }
    }

    #[test]
    fn failures_a_retry_cannot_change_return_at_once() {
        let g = chain_graph();
        let nan_seed = vec![vec![f64::NAN; 100]];
        let err = solve_columns(&g, &[JumpVector::Uniform], Some(&nan_seed), &cfg()).unwrap_err();
        assert_eq!(err.attempts.len(), 1, "{err}");
        assert!(matches!(
            err.attempts[0].outcome,
            AttemptOutcome::Failed(PageRankError::NumericalInstability { iterations: 1, .. })
        ));
        let long = JumpVector::Custom(vec![0.001; 101]);
        let err = solve_columns(&g, &[JumpVector::Uniform, long], None, &cfg()).unwrap_err();
        assert_eq!(err.attempts.len(), 1, "{err}");
        assert!(matches!(
            err.attempts[0].outcome,
            AttemptOutcome::Failed(PageRankError::JumpVectorLength { got: 101, expected: 100 })
        ));
        assert!(err.to_string().starts_with("solve failed after 1 attempt:"), "{err}");
    }

    #[test]
    fn a_damping_factor_next_to_one_cannot_ask_for_an_endless_solve() {
        // Unequal bipartite star: the residual decays at exactly c per
        // sweep, so c ≈ 1 would need ~1e10 sweeps; the clamp stops at 1e5.
        let g = GraphBuilder::from_edges(3, &[(0, 1), (0, 2), (1, 0), (2, 0)]);
        let slow = PageRankConfig::with_damping(0.999_999_999).max_iterations(50);
        let err = solve_columns(&g, &[JumpVector::Uniform], None, &slow).unwrap_err();
        assert_eq!(err.attempts.len(), 2);
        assert_eq!(err.attempts[1].config.max_iterations, 50 + 100_000 + 1);
    }

    #[test]
    fn attempts_reach_telemetry() {
        let collector = obs::Collector::builder().build();
        let tight = cfg().max_iterations(60).tolerance(1e-12);
        // Long enough that the second attempt alone sweeps 100 times.
        {
            let _guard = collector.install();
            solve_columns(&chain_of(110), &[JumpVector::Uniform], None, &tight).unwrap();
        }
        let messages: Vec<_> = collector
            .messages()
            .into_iter()
            .filter(|(name, _)| name == "pagerank.chain.attempt")
            .collect();
        assert_eq!(messages.len(), 2);
        let outcome =
            |idx: usize| messages[idx].1.iter().find(|(k, _)| k == "outcome").unwrap().1.clone();
        assert_eq!(outcome(0), obs::Json::str("failed"));
        assert_eq!(outcome(1), obs::Json::str("converged"));
        // Both attempts' solver spans nest under the one chain span.
        let spans = collector.spans();
        let nested = spans.iter().filter(|s| s.path == "pagerank.chain.pagerank.solve.batch");
        assert_eq!(nested.count(), 2);
        // The guard fed every sweep's residual of both attempts into the
        // histogram.
        let metrics = collector.metrics_snapshot();
        let residuals = metrics.iter().find(|(k, _)| k == "pagerank.residual").unwrap();
        match &residuals.1 {
            obs::Metric::Histogram(h) => assert!(h.count() >= 60 + 100, "{}", h.count()),
            other => panic!("expected histogram, got {}", other.kind()),
        }
    }

    #[test]
    fn attempt_report_display_is_informative() {
        let r = AttemptReport {
            config: cfg(),
            outcome: AttemptOutcome::Failed(PageRankError::DidNotConverge {
                iterations: 9,
                residual: 0.5,
            }),
        };
        let s = r.to_string();
        assert!(s.contains("cap=1000") && s.contains("9 iterations"), "{s}");
    }
}
