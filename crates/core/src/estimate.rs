//! Spam-mass estimation from partial knowledge (Sections 3.4–3.5,
//! Definition 3).
//!
//! Only a **good core** `Ṽ⁺ ⊆ V⁺` is assumed known. Two PageRank runs
//! produce the estimate:
//!
//! 1. `p = PR(v)` — regular PageRank under the uniform jump;
//! 2. `p′ = PR(w)` — core-based PageRank, where `w` is either
//!    * the plain restriction `v^{Ṽ⁺}` (entries `1/n` on the core —
//!      Section 3.4, used in the Table 1 example), or
//!    * the **γ-scaled** vector with `‖w‖ = γ ≈ |V⁺|/n` (Section 3.5) —
//!      required on real webs where `|Ṽ⁺| ≪ |V⁺|` would otherwise make
//!      `p′` negligible and `M̃ ≈ p` for everyone.
//!
//! Then `M̃ = p − p′` and `m̃ = 1 − p′_x/p_x`. Under the scaled vector,
//! core members and their heavy beneficiaries get **negative** mass —
//! the paper treats negative mass as a strong goodness signal.
//!
//! ## Execution
//!
//! The two runs advance **together** as the columns of one
//! [`solve_columns`] call, so each sweep traverses the edge structure once
//! for both — on large graphs the edge arrays are the dominant memory
//! traffic. Every other PageRank this crate computes (the core-only
//! re-solve of the Section 4.5 ablation, exact mass, the TrustRank and
//! naive baselines) is a column of the same call. Every solve runs in the
//! graph's own node ids: a cache-friendly order belongs to the image
//! (`spammass convert --order degree`), never to an estimate.
//!
//! ## Hardening
//!
//! Estimation is fallible end-to-end: solver failures surface as typed
//! [`EstimateError`]s instead of panics. A solve that hits its iteration
//! cap is run once more with the cap its own residual asks for — both
//! columns together, same damping, same start — and the returned
//! [`EstimateReport`] says so. The report also flags two anomaly classes —
//! non-core nodes whose estimated good contribution exceeds their PageRank
//! (`p′_x > p_x`, impossible with an unscaled core and suspicious
//! otherwise) and *dead* core entries (core nodes carrying no PageRank,
//! which silently weaken the estimate).
//!
//! The dual estimator from a known **spam core** (`M̂ = PR(v^{Ṽ⁻})`) and
//! the combination scheme `(M̃ + M̂)/2` from the end of Section 3.4 are
//! also provided.

use crate::mass::relative_mass;
use spammass_graph::{CompressedImage, Graph, NodeId};
use spammass_obs as obs;
use spammass_pagerank::{
    solve_columns, ChainError, ChainSolve, JumpVector, PageRankConfig, PageRankResult,
};
use std::fmt;
use std::ops::Deref;

/// How the core-based random jump vector is scaled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoreScaling {
    /// Plain `v^{Ṽ⁺}`: `1/n` per core node (Section 3.4).
    Unscaled,
    /// `w` with total mass `γ` — the estimated good fraction of the web
    /// (Section 3.5; the paper uses γ = 0.85).
    Gamma(f64),
}

/// Configuration of the mass estimator.
#[derive(Debug, Clone, Copy)]
pub struct EstimatorConfig {
    /// Underlying PageRank solver parameters.
    pub pagerank: PageRankConfig,
    /// Core jump scaling.
    pub scaling: CoreScaling,
}

impl EstimatorConfig {
    /// Section 3.4 setting: unscaled core vector.
    pub fn unscaled() -> Self {
        EstimatorConfig { pagerank: PageRankConfig::default(), scaling: CoreScaling::Unscaled }
    }

    /// Section 3.5 / Section 4.3 setting: γ-scaled core vector
    /// (the paper's production choice, γ = 0.85).
    ///
    /// `gamma` is validated when the estimator runs —
    /// [`EstimateError::InvalidGamma`] — so a bad value cannot panic deep
    /// inside a pipeline.
    pub fn scaled(gamma: f64) -> Self {
        EstimatorConfig { pagerank: PageRankConfig::default(), scaling: CoreScaling::Gamma(gamma) }
    }

    /// Replaces the PageRank solver configuration, builder-style.
    pub fn with_pagerank(mut self, pr: PageRankConfig) -> Self {
        self.pagerank = pr;
        self
    }

    /// Checks the configuration without running anything.
    ///
    /// # Errors
    /// [`EstimateError::InvalidGamma`] or a wrapped PageRank config error.
    pub fn validate(&self) -> Result<(), EstimateError> {
        self.pagerank.validate().map_err(EstimateError::Config)?;
        if let CoreScaling::Gamma(gamma) = self.scaling {
            if !(0.0..=1.0).contains(&gamma) || gamma == 0.0 {
                return Err(EstimateError::InvalidGamma(gamma));
            }
        }
        Ok(())
    }
}

impl Default for EstimatorConfig {
    /// The paper's production configuration: γ = 0.85.
    fn default() -> Self {
        EstimatorConfig::scaled(0.85)
    }
}

/// Errors from mass estimation.
#[derive(Debug)]
pub enum EstimateError {
    /// The good (or spam) core was empty.
    EmptyCore,
    /// γ outside `(0, 1]`.
    InvalidGamma(f64),
    /// The underlying PageRank configuration was invalid.
    Config(spammass_pagerank::PageRankError),
    /// A supplied vector's length did not match the graph.
    LengthMismatch {
        /// Supplied length.
        got: usize,
        /// Graph node count.
        expected: usize,
    },
    /// λ outside `[0, 1]` in a weighted combination.
    InvalidLambda(f64),
    /// A solve failed, retry included.
    Solver {
        /// Which solve: `"batch"` (`p` and `p′` together), `"core"` (`p′`
        /// alone), or a baseline's own name.
        stage: &'static str,
        /// The report of every attempt made.
        source: ChainError,
    },
    /// The streamed (out-of-core) solve failed — resident budget too
    /// small, convergence failure, or compressed-image corruption. There
    /// is no retry out-of-core: the error is surfaced directly.
    Stream(spammass_pagerank::PageRankError),
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::EmptyCore => write!(f, "core must be non-empty"),
            EstimateError::InvalidGamma(g) => write!(f, "gamma {g} must be in (0, 1]"),
            EstimateError::Config(e) => write!(f, "invalid estimator configuration: {e}"),
            EstimateError::LengthMismatch { got, expected } => {
                write!(f, "vector length {got} does not match node count {expected}")
            }
            EstimateError::InvalidLambda(l) => write!(f, "lambda {l} must be in [0, 1]"),
            EstimateError::Solver { stage, source } => {
                write!(f, "{stage} solve failed: {source}")
            }
            EstimateError::Stream(e) => write!(f, "streamed solve failed: {e}"),
        }
    }
}

impl std::error::Error for EstimateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EstimateError::Config(e) => Some(e),
            EstimateError::Solver { source, .. } => Some(source),
            EstimateError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

/// Condensed diagnostics of one solved column.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveDiagnostics {
    /// How the column was solved: `"batch"`, `"batch-warm"` or `"streamed"`.
    pub solver: &'static str,
    /// Iterations of the accepted solve.
    pub iterations: usize,
    /// Final residual of the accepted solve.
    pub residual: f64,
    /// Total attempts made (1 = the solve converged as configured).
    pub attempts: usize,
    /// Iteration cap of the accepted attempt: the configured one, or the
    /// one the retry worked out.
    pub cap: usize,
}

impl SolveDiagnostics {
    /// Whether the configured cap was too tight and a second attempt
    /// produced the result.
    pub fn used_fallback(&self) -> bool {
        self.attempts > 1
    }

    fn of(solver: &'static str, column: &PageRankResult, attempts: usize, cap: usize) -> Self {
        SolveDiagnostics {
            solver,
            iterations: column.iterations,
            residual: column.residual,
            attempts,
            cap,
        }
    }
}

impl fmt::Display for SolveDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} iterations, residual {:.3e}",
            self.solver, self.iterations, self.residual
        )?;
        if self.used_fallback() {
            write!(f, " (configured cap too tight; solved again with cap {})", self.cap)?;
        }
        Ok(())
    }
}

/// The production solve with failures wrapped into the crate's error:
/// all of `jumps` as one [`solve_columns`] call.
pub(crate) fn solve_staged(
    graph: &Graph,
    jumps: &[JumpVector],
    config: &PageRankConfig,
    stage: &'static str,
) -> Result<ChainSolve, EstimateError> {
    solve_columns(graph, jumps, None, config)
        .map_err(|source| EstimateError::Solver { stage, source })
}

/// [`solve_staged`] for one column, keeping only its scores.
pub(crate) fn solve_one(
    graph: &Graph,
    jump: JumpVector,
    config: &PageRankConfig,
    stage: &'static str,
) -> Result<Vec<f64>, EstimateError> {
    let mut solve = solve_staged(graph, &[jump], config, stage)?;
    Ok(solve.columns.pop().expect("one jump vector yields one column").scores)
}

/// The estimator: computes [`EstimateReport`]s from a graph and a good core.
#[derive(Debug, Clone, Copy, Default)]
pub struct MassEstimator {
    config: EstimatorConfig,
}

impl MassEstimator {
    /// Creates an estimator with the given configuration.
    pub fn new(config: EstimatorConfig) -> Self {
        MassEstimator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// The core-restricted jump vector under the configured scaling.
    pub(crate) fn core_jump(&self, good_core: &[NodeId], n: usize) -> JumpVector {
        match self.config.scaling {
            CoreScaling::Unscaled => JumpVector::core(good_core.to_vec(), n),
            CoreScaling::Gamma(gamma) => JumpVector::scaled_core(good_core.to_vec(), gamma),
        }
    }

    /// Runs the two PageRank computations and derives mass estimates.
    ///
    /// Both runs advance together as one two-column [`solve_columns`]
    /// call (one traversal of the in-CSR per sweep for both columns).
    ///
    /// # Errors
    /// [`EstimateError`] on an empty/out-of-range core, invalid
    /// configuration, or when the solve fails, retry included.
    pub fn estimate(
        &self,
        graph: &Graph,
        good_core: &[NodeId],
    ) -> Result<EstimateReport, EstimateError> {
        let _span = obs::span("estimate");
        self.config.validate()?;
        if good_core.is_empty() {
            return Err(EstimateError::EmptyCore);
        }
        let jumps = [JumpVector::Uniform, self.core_jump(good_core, graph.node_count())];
        let batch_span = obs::span("pagerank_batch");
        let outcome = solve_columns(graph, &jumps, None, &self.config.pagerank);
        drop(batch_span);
        // A second attempt is worth a count whether or not it converged.
        let attempts = match &outcome {
            Ok(solve) => &solve.attempts,
            Err(failed) => &failed.attempts,
        };
        if let [first, _second] = &attempts[..] {
            obs::counter("estimate.batch_fallback", 1.0);
            obs::event(
                "estimate.batch_fallback",
                vec![("error".to_string(), obs::Json::str(first.to_string()))],
            );
        }
        let solve = outcome.map_err(|source| EstimateError::Solver { stage: "batch", source })?;
        Ok(self.pair_report(good_core, "batch", solve.attempts.len(), solve.cap(), solve.columns))
    }

    /// Out-of-core estimation: both PageRank runs stream the in-blocks of
    /// a compressed v4 image through
    /// [`spammass_pagerank::solve_batch_streamed`], keeping only the score
    /// vectors, out-degree coefficients, and one decoded block per pool
    /// worker resident — `max_resident_bytes` bounds that working set.
    /// The flagged set is identical to the in-memory path on the same
    /// graph (streamed scores do not depend on the worker count and are
    /// bit-exact against the single-worker pooled engine).
    ///
    /// There is no retry — failures surface directly as
    /// [`EstimateError::Stream`].
    ///
    /// # Errors
    /// [`EstimateError::EmptyCore`], configuration errors, or
    /// [`EstimateError::Stream`] wrapping the solver failure (including
    /// [`spammass_pagerank::PageRankError::ResidentBudget`] when the
    /// budget is too small for the score vectors themselves).
    pub fn estimate_streamed(
        &self,
        image: &CompressedImage,
        good_core: &[NodeId],
        max_resident_bytes: u64,
    ) -> Result<EstimateReport, EstimateError> {
        let _span = obs::span("estimate.streamed");
        self.config.validate()?;
        if good_core.is_empty() {
            return Err(EstimateError::EmptyCore);
        }
        let n = image.node_count();
        let jumps = [JumpVector::Uniform, self.core_jump(good_core, n)];
        let results = spammass_pagerank::solve_batch_streamed(
            image,
            &jumps,
            &self.config.pagerank,
            max_resident_bytes,
        )
        .map_err(EstimateError::Stream)?;
        let cap = self.config.pagerank.max_iterations;
        Ok(self.pair_report(good_core, "streamed", 1, cap, results))
    }

    /// The pool workers [`estimate_streamed`](Self::estimate_streamed)
    /// runs on for this image, core and budget — the configured thread
    /// count through the solver's sizing rule, capped by the image's
    /// in-block count and by the block scratches the budget affords.
    ///
    /// # Errors
    /// [`EstimateError::Stream`] wrapping
    /// [`spammass_pagerank::PageRankError::ResidentBudget`] when not even
    /// one worker fits.
    pub fn streamed_workers(
        &self,
        image: &CompressedImage,
        good_core: &[NodeId],
        max_resident_bytes: u64,
    ) -> Result<usize, EstimateError> {
        let jumps = [JumpVector::Uniform, self.core_jump(good_core, image.node_count())];
        spammass_pagerank::stream::streamed_workers(
            image,
            &jumps,
            &self.config.pagerank,
            max_resident_bytes,
        )
        .map_err(EstimateError::Stream)
    }

    /// Same as [`estimate`](Self::estimate), but reuses an existing regular
    /// PageRank vector `p` — the Section 4.5 core-size ablation recomputes
    /// only `p′` per core. `pagerank_diag` is `None` on the returned report
    /// since the uniform run happened elsewhere.
    ///
    /// # Errors
    /// Same contract as [`estimate`](Self::estimate), plus
    /// [`EstimateError::LengthMismatch`] when `pagerank` does not match the
    /// graph.
    pub fn estimate_with_pagerank(
        &self,
        graph: &Graph,
        good_core: &[NodeId],
        pagerank: Vec<f64>,
    ) -> Result<EstimateReport, EstimateError> {
        let n = graph.node_count();
        self.config.validate()?;
        if pagerank.len() != n {
            return Err(EstimateError::LengthMismatch { got: pagerank.len(), expected: n });
        }
        if good_core.is_empty() {
            return Err(EstimateError::EmptyCore);
        }
        let jump = self.core_jump(good_core, n);
        let core_span = obs::span("pagerank_core");
        let solve = solve_staged(graph, &[jump], &self.config.pagerank, "core");
        drop(core_span);
        let mut solve = solve?;
        let p_core = solve.columns.pop().expect("one jump vector yields one column");
        let core_diag = SolveDiagnostics::of("batch", &p_core, solve.attempts.len(), solve.cap());
        Ok(self.build_report(good_core, pagerank, None, p_core.scores, core_diag))
    }

    /// The report of a finished `[p, p′]` solve — resident, streamed or
    /// warm; `attempts` and `cap` describe the attempt both columns came
    /// from.
    pub(crate) fn pair_report(
        &self,
        good_core: &[NodeId],
        solver: &'static str,
        attempts: usize,
        cap: usize,
        mut columns: Vec<PageRankResult>,
    ) -> EstimateReport {
        let p_core = columns.pop().expect("a pair solve returns two columns");
        let uniform = columns.pop().expect("a pair solve returns two columns");
        let diag = |column| SolveDiagnostics::of(solver, column, attempts, cap);
        let (pagerank_diag, core_diag) = (diag(&uniform), diag(&p_core));
        self.build_report(good_core, uniform.scores, Some(pagerank_diag), p_core.scores, core_diag)
    }

    /// Derives the mass estimate, anomaly scan, and telemetry from the two
    /// solved score vectors.
    fn build_report(
        &self,
        good_core: &[NodeId],
        pagerank: Vec<f64>,
        pagerank_diag: Option<SolveDiagnostics>,
        p_core: Vec<f64>,
        core_diag: SolveDiagnostics,
    ) -> EstimateReport {
        let absolute: Vec<f64> = pagerank.iter().zip(&p_core).map(|(&p, &pc)| p - pc).collect();
        let relative = relative_mass(&pagerank, &absolute);

        // Anomaly scan. Core membership is looked up via a sorted copy so
        // the scan stays O((n + |core|) log |core|).
        let mut core_sorted = good_core.to_vec();
        core_sorted.sort_unstable();
        core_sorted.dedup();
        let in_core = |x: usize| core_sorted.binary_search(&NodeId(x as u32)).is_ok();

        let mut anomalies = Vec::new();
        for (x, (&p, &pc)) in pagerank.iter().zip(&p_core).enumerate() {
            // Core members (and, under γ scaling, their direct
            // beneficiaries) legitimately exceed p; only flag non-core
            // nodes, where p′ > p means the estimate is untrustworthy.
            if pc > p + 1e-12 && !in_core(x) {
                anomalies.push(NodeId(x as u32));
            }
        }
        let dead_core: Vec<NodeId> = core_sorted
            .iter()
            .copied()
            .filter(|x| {
                let p = pagerank[x.index()];
                !(p.is_finite() && p > 0.0)
            })
            .collect();

        let mass = MassEstimate {
            pagerank,
            core_pagerank: p_core,
            absolute,
            relative,
            damping: self.config.pagerank.damping,
        };
        obs::counter("estimate.anomalies", anomalies.len() as f64);
        obs::counter("estimate.dead_core", dead_core.len() as f64);
        obs::gauge("estimate.coverage_ratio", mass.coverage_ratio());
        obs::gauge("estimate.nodes", mass.pagerank.len() as f64);
        obs::gauge("estimate.core_size", core_sorted.len() as f64);
        if obs::is_enabled() {
            // Mass-distribution summary: the relative-mass histogram is the
            // population Algorithm 2 thresholds over (only built when a
            // collector is listening — this loop is O(n)).
            for &m in &mass.relative {
                obs::observe("estimate.relative_mass", m);
            }
        }
        EstimateReport { mass, anomalies, dead_core, pagerank_diag, core_diag }
    }
}

/// A [`MassEstimate`] plus the health diagnostics gathered while computing
/// it. Derefs to the estimate, so all scaled accessors work directly on the
/// report.
#[derive(Debug, Clone)]
pub struct EstimateReport {
    /// The mass estimate itself.
    pub mass: MassEstimate,
    /// Non-core nodes whose estimated good contribution exceeds their
    /// PageRank (`p′_x > p_x`). Impossible with an unscaled core (up to
    /// solver tolerance); under γ scaling a sign that γ overshoots the
    /// true good fraction around these nodes.
    pub anomalies: Vec<NodeId>,
    /// Core entries with zero (or non-finite) PageRank — they contribute
    /// nothing to `p′` and usually indicate a stale or mismatched core
    /// file.
    pub dead_core: Vec<NodeId>,
    /// Diagnostics of the uniform PageRank run; `None` when a pre-computed
    /// vector was supplied via
    /// [`MassEstimator::estimate_with_pagerank`].
    pub pagerank_diag: Option<SolveDiagnostics>,
    /// Diagnostics of the core-based PageRank run.
    pub core_diag: SolveDiagnostics,
}

impl EstimateReport {
    /// Whether estimation ran with no anomalies, no dead core entries, and
    /// no second solve attempt.
    pub fn is_healthy(&self) -> bool {
        self.anomalies.is_empty()
            && self.dead_core.is_empty()
            && !self.core_diag.used_fallback()
            && self.pagerank_diag.as_ref().is_none_or(|d| !d.used_fallback())
    }

    /// Consumes the report, keeping only the estimate.
    pub fn into_mass(self) -> MassEstimate {
        self.mass
    }
}

impl Deref for EstimateReport {
    type Target = MassEstimate;

    fn deref(&self) -> &MassEstimate {
        &self.mass
    }
}

/// The output of mass estimation: `p`, `p′`, `M̃`, `m̃`.
#[derive(Debug, Clone)]
pub struct MassEstimate {
    /// Regular PageRank `p`.
    pub pagerank: Vec<f64>,
    /// Core-based PageRank `p′` (the estimated good contribution).
    pub core_pagerank: Vec<f64>,
    /// Estimated absolute mass `M̃ = p − p′` (may be negative under γ
    /// scaling).
    pub absolute: Vec<f64>,
    /// Estimated relative mass `m̃ = 1 − p′/p`.
    pub relative: Vec<f64>,
    damping: f64,
}

impl MassEstimate {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.pagerank.len()
    }

    /// Whether the estimate covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.pagerank.is_empty()
    }

    /// Damping factor the estimate was computed under.
    pub fn damping(&self) -> f64 {
        self.damping
    }

    /// Scale factor `n/(1−c)`.
    pub fn scale(&self) -> f64 {
        self.len() as f64 / (1.0 - self.damping)
    }

    /// Scaled PageRank of `x`.
    pub fn scaled_pagerank(&self, x: NodeId) -> f64 {
        self.pagerank[x.index()] * self.scale()
    }

    /// Scaled core-based PageRank of `x`.
    pub fn scaled_core_pagerank(&self, x: NodeId) -> f64 {
        self.core_pagerank[x.index()] * self.scale()
    }

    /// Scaled estimated absolute mass of `x`.
    pub fn scaled_absolute(&self, x: NodeId) -> f64 {
        self.absolute[x.index()] * self.scale()
    }

    /// Estimated relative mass of `x`.
    pub fn relative_of(&self, x: NodeId) -> f64 {
        self.relative[x.index()]
    }

    /// Total estimated good contribution `‖p′‖` versus total PageRank
    /// `‖p‖` — the diagnostic of Section 3.5 (`‖p′‖ ≪ ‖p‖` signals that
    /// the core vector needs γ scaling).
    pub fn coverage_ratio(&self) -> f64 {
        let pc: f64 = self.core_pagerank.iter().sum();
        let p: f64 = self.pagerank.iter().sum();
        if p > 0.0 {
            pc / p
        } else {
            0.0
        }
    }
}

/// Absolute-mass estimate `M̂ = PR(v^{Ṽ⁻})` from a known **spam core**
/// (Section 3.4, "the alternate situation that Ṽ⁻ is provided").
///
/// # Errors
/// [`EstimateError::EmptyCore`] on an empty spam core; solver and
/// configuration failures as in [`MassEstimator::estimate`].
pub fn estimate_from_spam_core(
    graph: &Graph,
    spam_core: &[NodeId],
    config: &PageRankConfig,
) -> Result<Vec<f64>, EstimateError> {
    if spam_core.is_empty() {
        return Err(EstimateError::EmptyCore);
    }
    solve_one(graph, JumpVector::core(spam_core.to_vec(), graph.node_count()), config, "core")
}

/// Combines a good-core estimate `M̃` and a spam-core estimate `M̂` by
/// simple averaging `(M̃ + M̂)/2` (Section 3.4).
///
/// # Errors
/// [`EstimateError::LengthMismatch`] when the inputs disagree in length.
pub fn combine_estimates(m_good: &[f64], m_spam: &[f64]) -> Result<Vec<f64>, EstimateError> {
    combine_estimates_weighted(m_good, m_spam, 0.5)
}

/// Weighted combination: `λ·M̃ + (1−λ)·M̂`, the "more sophisticated
/// combination scheme" sketched in Section 3.4, with the weight chosen
/// from the relative trust in the two cores.
///
/// # Errors
/// [`EstimateError::LengthMismatch`] on length disagreement,
/// [`EstimateError::InvalidLambda`] when `λ ∉ [0, 1]`.
pub fn combine_estimates_weighted(
    m_good: &[f64],
    m_spam: &[f64],
    lambda: f64,
) -> Result<Vec<f64>, EstimateError> {
    if m_good.len() != m_spam.len() {
        return Err(EstimateError::LengthMismatch { got: m_spam.len(), expected: m_good.len() });
    }
    if !(0.0..=1.0).contains(&lambda) {
        return Err(EstimateError::InvalidLambda(lambda));
    }
    Ok(m_good.iter().zip(m_spam).map(|(&a, &b)| lambda * a + (1.0 - lambda) * b).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::{figure2, table1_expected};
    use crate::mass::ExactMass;
    use spammass_graph::GraphBuilder;

    fn pr_cfg() -> PageRankConfig {
        PageRankConfig::default().tolerance(1e-14).max_iterations(10_000)
    }

    #[test]
    fn table1_estimated_columns() {
        // The p′, M̃, m̃ columns of Table 1 under the unscaled core
        // {g0, g1, g3}.
        let f = figure2();
        let est = MassEstimator::new(EstimatorConfig::unscaled().with_pagerank(pr_cfg()))
            .estimate(&f.graph, &f.good_core())
            .unwrap();
        let expect = table1_expected();
        let rows: Vec<(&str, NodeId)> = vec![
            ("x", f.x),
            ("g0", f.g[0]),
            ("g1", f.g[1]),
            ("g2", f.g[2]),
            ("g3", f.g[3]),
            ("s0", f.s[0]),
        ];
        for (name, node) in rows {
            let row = expect.iter().find(|(n, _)| *n == name).unwrap().1;
            assert!(
                (est.scaled_core_pagerank(node) - row.p_core).abs() < 1e-9,
                "{name}: p′ {} vs {}",
                est.scaled_core_pagerank(node),
                row.p_core
            );
            assert!(
                (est.scaled_absolute(node) - row.m_abs_est).abs() < 1e-9,
                "{name}: M̃ {} vs {}",
                est.scaled_absolute(node),
                row.m_abs_est
            );
            assert!(
                (est.relative_of(node) - row.m_rel_est).abs() < 1e-9,
                "{name}: m̃ {} vs {}",
                est.relative_of(node),
                row.m_rel_est
            );
        }
    }

    #[test]
    fn estimated_mass_upper_bounds_exact_with_unscaled_core() {
        // With Ṽ⁺ ⊆ V⁺ and no scaling, p′ ≤ q^{V⁺}, hence M̃ ≥ M ≥ 0.
        let f = figure2();
        let exact = ExactMass::compute(&f.graph, &f.partition(), &pr_cfg()).unwrap();
        let est = MassEstimator::new(EstimatorConfig::unscaled().with_pagerank(pr_cfg()))
            .estimate(&f.graph, &f.good_core())
            .unwrap();
        for i in 0..12 {
            assert!(est.absolute[i] >= exact.absolute[i] - 1e-12, "node {i}");
            assert!(est.absolute[i] >= -1e-12);
            assert!(est.relative[i] <= 1.0 + 1e-12);
        }
        // An unscaled run on a healthy graph raises no flags.
        assert!(est.anomalies.is_empty(), "{:?}", est.anomalies);
        assert!(est.dead_core.is_empty());
        assert!(est.is_healthy());
    }

    #[test]
    fn gamma_scaling_produces_negative_mass_for_core_members() {
        // Section 3.5: core members get boosted jump γ/|Ṽ⁺| > 1/n, so
        // p′ can exceed p — negative estimated mass.
        let f = figure2();
        let est = MassEstimator::new(EstimatorConfig::scaled(0.85).with_pagerank(pr_cfg()))
            .estimate(&f.graph, &f.good_core())
            .unwrap();
        for &g in &f.good_core() {
            assert!(
                est.absolute[g.index()] < 0.0,
                "core member {g} should have negative estimated mass, got {}",
                est.absolute[g.index()]
            );
        }
        // Spam nodes with no good in-links keep full positive mass.
        assert!(est.absolute[f.s[0].index()] > 0.0);
        assert!((est.relative_of(f.s[0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn anomaly_flags_non_core_beneficiaries_under_aggressive_gamma() {
        // Boosted core pointing straight at x pushes p′_x above p_x; x is
        // not in the core, so it must be flagged.
        let f = figure2();
        let est = MassEstimator::new(EstimatorConfig::scaled(0.85).with_pagerank(pr_cfg()))
            .estimate(&f.graph, &f.good_core())
            .unwrap();
        // Core members themselves are never anomalies, however negative
        // their mass.
        for a in &est.anomalies {
            assert!(!f.good_core().contains(a), "core member {a} flagged");
        }
        // Anomalies are exactly the non-core nodes with p′ > p.
        for x in 0..est.len() {
            let node = NodeId(x as u32);
            let expected =
                est.core_pagerank[x] > est.pagerank[x] + 1e-12 && !f.good_core().contains(&node);
            assert_eq!(est.anomalies.contains(&node), expected, "node {x}");
        }
    }

    #[test]
    fn solver_diagnostics_propagate() {
        let f = figure2();
        let est = MassEstimator::new(EstimatorConfig::unscaled().with_pagerank(pr_cfg()))
            .estimate(&f.graph, &f.good_core())
            .unwrap();
        let pr = est.pagerank_diag.as_ref().expect("fresh estimate records the uniform run");
        assert_eq!(pr.solver, "batch", "default path is the batched solve");
        assert!(!pr.used_fallback());
        assert!(pr.iterations > 0 && pr.residual < 1e-14);
        assert!(est.core_diag.iterations > 0);
        assert!(est.core_diag.to_string().contains("batch"));
        assert!(est.is_healthy());
    }

    /// `p` from an independent Algorithm 1 run, for the comparisons
    /// against the core-only path.
    fn reference_pagerank(graph: &Graph) -> Vec<f64> {
        use spammass_pagerank::reference::jacobi::solve_jacobi;
        solve_jacobi(graph, &JumpVector::Uniform, &pr_cfg()).unwrap().scores
    }

    #[test]
    fn core_only_solve_reports_its_solver() {
        let f = figure2();
        let est = MassEstimator::new(EstimatorConfig::unscaled().with_pagerank(pr_cfg()))
            .estimate_with_pagerank(&f.graph, &f.good_core(), reference_pagerank(&f.graph))
            .unwrap();
        assert!(est.pagerank_diag.is_none(), "the uniform run happened elsewhere");
        assert!(!est.core_diag.used_fallback());
        assert_eq!(est.core_diag.cap, pr_cfg().max_iterations);
        assert!(est.core_diag.to_string().starts_with("batch: "), "{}", est.core_diag);
    }

    #[test]
    fn a_cap_one_sweep_short_is_solved_again_and_says_so() {
        // One sweep short of what `p` needs: the two-column solve hits the
        // cap, runs once more with the cap its residual asks for, and both
        // columns of the report come from that second attempt.
        let f = figure2();
        let batched = MassEstimator::new(EstimatorConfig::scaled(0.85).with_pagerank(pr_cfg()))
            .estimate(&f.graph, &f.good_core())
            .unwrap();
        let needed = batched.pagerank_diag.as_ref().unwrap().iterations;
        let tight = pr_cfg().max_iterations(needed - 1);
        let est = MassEstimator::new(EstimatorConfig::scaled(0.85).with_pagerank(tight))
            .estimate(&f.graph, &f.good_core())
            .unwrap();
        let pr = est.pagerank_diag.as_ref().unwrap();
        assert_eq!(pr.solver, "batch");
        assert!(pr.used_fallback() && est.core_diag.used_fallback());
        assert_eq!((pr.attempts, est.core_diag.attempts), (2, 2));
        assert!(pr.cap >= needed && pr.cap == est.core_diag.cap, "{} vs {needed}", pr.cap);
        assert!(pr.to_string().contains(&format!("solved again with cap {}", pr.cap)), "{pr}");
        assert!(!est.is_healthy());
        assert_eq!(est.damping(), 0.85, "the answer is for the configured system");
        assert_eq!(batched.pagerank, est.pagerank);
        assert_eq!(batched.absolute, est.absolute);
    }

    #[test]
    fn pair_and_core_only_solves_agree() {
        let f = figure2();
        let estimator = MassEstimator::new(EstimatorConfig::scaled(0.85).with_pagerank(pr_cfg()));
        let pair = estimator.estimate(&f.graph, &f.good_core()).unwrap();
        let core_only = estimator
            .estimate_with_pagerank(&f.graph, &f.good_core(), reference_pagerank(&f.graph))
            .unwrap();
        for i in 0..pair.len() {
            assert!(
                (pair.absolute[i] - core_only.absolute[i]).abs() < 1e-12,
                "node {i}: {} vs {}",
                pair.absolute[i],
                core_only.absolute[i]
            );
            assert!((pair.relative[i] - core_only.relative[i]).abs() < 1e-9, "node {i}");
        }
        assert_eq!(pair.anomalies, core_only.anomalies);
        assert_eq!(pair.dead_core, core_only.dead_core);
    }

    #[test]
    fn estimate_surfaces_solver_failure() {
        // Unequal bipartite star: the residual shrinks by exactly c a
        // sweep, and c this close to one needs ~1e10 of them — more than
        // the retry lets itself ask for. Both attempts are reported, and
        // neither solved a different system to get an answer.
        let g = GraphBuilder::from_edges(3, &[(0, 1), (0, 2), (1, 0), (2, 0)]);
        let slow = PageRankConfig::with_damping(0.999_999_999).max_iterations(50);
        let err = MassEstimator::new(EstimatorConfig::unscaled().with_pagerank(slow))
            .estimate(&g, &[NodeId(0)])
            .unwrap_err();
        match err {
            EstimateError::Solver { stage: "batch", source } => {
                assert_eq!(source.attempts.len(), 2, "{source}");
                assert!(source.attempts.iter().all(|a| a.config.damping == slow.damping));
            }
            other => panic!("expected Solver error, got {other:?}"),
        }
    }

    #[test]
    fn dead_core_entries_are_flagged() {
        // Reuse a pagerank vector with a zeroed core entry.
        let f = figure2();
        let estimator = MassEstimator::new(EstimatorConfig::unscaled().with_pagerank(pr_cfg()));
        let fresh = estimator.estimate(&f.graph, &f.good_core()).unwrap();
        let mut p = fresh.pagerank.clone();
        let dead = f.good_core()[0];
        p[dead.index()] = 0.0;
        let report = estimator.estimate_with_pagerank(&f.graph, &f.good_core(), p).unwrap();
        assert_eq!(report.dead_core, vec![dead]);
        assert!(!report.is_healthy());
        assert!(report.pagerank_diag.is_none());
    }

    #[test]
    fn coverage_ratio_reflects_scaling() {
        // Tiny core without scaling -> tiny coverage; with γ -> near γ.
        let f = figure2();
        let unscaled = MassEstimator::new(EstimatorConfig::unscaled().with_pagerank(pr_cfg()))
            .estimate(&f.graph, &f.good_core())
            .unwrap();
        let scaled = MassEstimator::new(EstimatorConfig::scaled(0.85).with_pagerank(pr_cfg()))
            .estimate(&f.graph, &f.good_core())
            .unwrap();
        assert!(scaled.coverage_ratio() > unscaled.coverage_ratio());
    }

    #[test]
    fn spam_core_estimator_lower_bounds_exact_mass() {
        // M̂ computed from a subset of V⁻ under-counts: M̂ ≤ M.
        let f = figure2();
        let exact = ExactMass::compute(&f.graph, &f.partition(), &pr_cfg()).unwrap();
        let spam_subset = vec![f.s[0], f.s[1], f.s[2]];
        let m_hat = estimate_from_spam_core(&f.graph, &spam_subset, &pr_cfg()).unwrap();
        for (i, (hat, abs)) in m_hat.iter().zip(&exact.absolute).enumerate() {
            assert!(*hat <= abs + 1e-12, "node {i}");
        }
    }

    #[test]
    fn combined_estimators() {
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 0.0];
        assert_eq!(combine_estimates(&a, &b).unwrap(), vec![2.0, 1.0]);
        assert_eq!(combine_estimates_weighted(&a, &b, 1.0).unwrap(), a);
        assert_eq!(combine_estimates_weighted(&a, &b, 0.0).unwrap(), b);
        let half = combine_estimates_weighted(&a, &b, 0.5).unwrap();
        assert_eq!(half, vec![2.0, 1.0]);
        assert!(matches!(
            combine_estimates(&a, &[1.0]),
            Err(EstimateError::LengthMismatch { got: 1, expected: 2 })
        ));
        assert!(matches!(
            combine_estimates_weighted(&a, &b, 1.5),
            Err(EstimateError::InvalidLambda(_))
        ));
    }

    #[test]
    fn estimate_with_reused_pagerank_matches_fresh() {
        // The supplied vector passes through untouched and the core
        // column is bit-identical whichever batch width it is solved in.
        let f = figure2();
        let estimator = MassEstimator::new(EstimatorConfig::scaled(0.85).with_pagerank(pr_cfg()));
        let fresh = estimator.estimate(&f.graph, &f.good_core()).unwrap();
        let reused = estimator
            .estimate_with_pagerank(&f.graph, &f.good_core(), fresh.pagerank.clone())
            .unwrap();
        assert_eq!(fresh.absolute, reused.absolute);
        assert_eq!(fresh.relative, reused.relative);
    }

    #[test]
    fn estimate_emits_nested_spans_and_metrics() {
        let collector = obs::Collector::builder().build();
        let f = figure2();
        {
            let _guard = collector.install();
            MassEstimator::new(EstimatorConfig::scaled(0.85).with_pagerank(pr_cfg()))
                .estimate(&f.graph, &f.good_core())
                .unwrap();
        }
        // The batched PageRank run is a child of the estimate span.
        let tree = collector.span_tree();
        let root = tree.iter().find(|n| n.record.name == "estimate").unwrap();
        let child_paths: Vec<&str> = root.children.iter().map(|c| c.record.path.as_str()).collect();
        assert!(child_paths.contains(&"estimate.pagerank_batch"), "{child_paths:?}");
        let metrics = collector.metrics_snapshot();
        let get = |name: &str| metrics.iter().find(|(k, _)| k == name).map(|(_, m)| m.clone());
        assert!(matches!(get("estimate.anomalies"), Some(obs::Metric::Counter(_))));
        assert!(matches!(get("estimate.dead_core"), Some(obs::Metric::Counter(0.0))));
        match get("estimate.coverage_ratio") {
            Some(obs::Metric::Gauge(v)) => assert!(v > 0.0, "{v}"),
            other => panic!("expected gauge, got {other:?}"),
        }
        // One relative-mass sample per node.
        match get("estimate.relative_mass") {
            Some(obs::Metric::Histogram(h)) => {
                assert_eq!(h.count() + h.non_finite(), f.graph.node_count() as u64)
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn rejects_empty_core() {
        let g = GraphBuilder::from_edges(2, &[(0, 1)]);
        assert!(matches!(
            MassEstimator::default().estimate(&g, &[]),
            Err(EstimateError::EmptyCore)
        ));
        assert!(matches!(
            estimate_from_spam_core(&g, &[], &PageRankConfig::default()),
            Err(EstimateError::EmptyCore)
        ));
    }

    #[test]
    fn rejects_bad_gamma() {
        let g = GraphBuilder::from_edges(2, &[(0, 1)]);
        let err = MassEstimator::new(EstimatorConfig::scaled(1.5))
            .estimate(&g, &[NodeId(0)])
            .unwrap_err();
        assert!(matches!(err, EstimateError::InvalidGamma(_)), "{err:?}");
        assert!(err.to_string().contains("gamma"));
    }

    #[test]
    fn rejects_mismatched_pagerank_vector() {
        let g = GraphBuilder::from_edges(3, &[(0, 1)]);
        let err = MassEstimator::new(EstimatorConfig::unscaled())
            .estimate_with_pagerank(&g, &[NodeId(0)], vec![0.1; 2])
            .unwrap_err();
        assert!(matches!(err, EstimateError::LengthMismatch { got: 2, expected: 3 }));
    }
}
