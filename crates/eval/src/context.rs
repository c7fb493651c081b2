//! Shared experiment context: one generated scenario plus the mass
//! estimates every figure consumes.

use crate::sample::{JudgedSample, SampleConfig};
use spammass_core::detector::candidate_pool;
use spammass_core::estimate::{EstimatorConfig, MassEstimate, MassEstimator};
use spammass_core::GoodCore;
use spammass_graph::NodeId;
use spammass_obs as obs;
use spammass_pagerank::PageRankConfig;
use spammass_synth::scenario::{Scenario, ScenarioConfig};
use std::path::PathBuf;

/// Options shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Approximate host count of the generated web.
    pub hosts: usize,
    /// Generator seed.
    pub seed: u64,
    /// Scaled PageRank threshold ρ (paper: 10).
    pub rho: f64,
    /// Good-fraction estimate γ for the scaled core vector (paper: 0.85).
    pub gamma: f64,
    /// Judging-noise configuration.
    pub sample: SampleConfig,
    /// Directory to write CSV outputs to (`None` = stdout only).
    pub csv_dir: Option<PathBuf>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            hosts: 60_000,
            seed: 20060131, // the paper's revision era
            rho: 10.0,
            gamma: 0.85,
            sample: SampleConfig::paper_noise(7),
            csv_dir: None,
        }
    }
}

impl ExperimentOptions {
    /// Small, fast options for tests.
    pub fn test_scale() -> Self {
        ExperimentOptions {
            hosts: 12_000,
            // A lower rho compensates for the smaller graph: scaled
            // PageRank of hub hosts grows with total edge volume, so the
            // paper's rho = 10 would leave the test-scale pool too thin.
            rho: 7.5,
            sample: SampleConfig::default(),
            ..Default::default()
        }
    }
}

/// A generated scenario with the paper's default estimation pipeline run
/// on it: Section 4.2 core, γ-scaled jump, candidate pool at ρ, judged
/// sample.
pub struct Context {
    /// The options the context was built from.
    pub opts: ExperimentOptions,
    /// The synthetic web.
    pub scenario: Scenario,
    /// The Section 4.2 good core.
    pub core: GoodCore,
    /// Mass estimates under the γ-scaled core vector.
    pub estimate: MassEstimate,
    /// Candidate pool `T` (scaled PageRank ≥ ρ).
    pub pool: Vec<NodeId>,
    /// Judged evaluation sample of `T`.
    pub sample: JudgedSample,
}

impl Context {
    /// Generates the scenario and runs the estimation pipeline.
    pub fn build(opts: ExperimentOptions) -> Context {
        let mut scenario_span = obs::span("eval.scenario");
        let scenario = Scenario::generate(&ScenarioConfig::sized(opts.hosts), opts.seed);
        scenario_span.record("hosts", scenario.graph.node_count() as f64);
        scenario_span.record("edges", scenario.graph.edge_count() as f64);
        drop(scenario_span);
        let estimate_span = obs::span("eval.estimate");
        let core = GoodCore::from_nodes(scenario.section_4_2_core());
        let estimator = MassEstimator::new(
            EstimatorConfig::scaled(opts.gamma).with_pagerank(Self::pagerank_config()),
        );
        let estimate = estimator
            .estimate(&scenario.graph, &core.as_vec())
            .expect("experiment-scale synthetic webs converge")
            .into_mass();
        drop(estimate_span);
        let pool = candidate_pool(&estimate, opts.rho);
        let sample = Self::judge(&scenario, &estimate, &pool, &opts.sample);
        Context { opts, scenario, core, estimate, pool, sample }
    }

    /// The PageRank configuration all experiments share.
    pub fn pagerank_config() -> PageRankConfig {
        PageRankConfig::default().tolerance(1e-12).max_iterations(200)
    }

    /// Whether `x` is a good host in an isolated community — the
    /// "anomalous" gray class of Figure 3.
    pub fn is_anomalous(scenario: &Scenario, x: NodeId) -> bool {
        scenario.truth.is_good(x)
            && scenario.good_web.communities.iter().any(|c| c.spec.isolated && c.contains(x))
    }

    /// Judges a pool against ground truth with the given noise settings.
    pub fn judge(
        scenario: &Scenario,
        estimate: &MassEstimate,
        pool: &[NodeId],
        cfg: &SampleConfig,
    ) -> JudgedSample {
        JudgedSample::judge(
            pool,
            cfg,
            |x| estimate.relative_of(x),
            |x| scenario.truth.is_spam(x),
            |x| Self::is_anomalous(scenario, x),
        )
    }

    /// Relative masses of the whole pool (for the Figure 4 host counts).
    pub fn pool_masses(&self) -> Vec<f64> {
        self.pool.iter().map(|&x| self.estimate.relative_of(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_and_pools_are_consistent() {
        let ctx = Context::build(ExperimentOptions::test_scale());
        assert!(!ctx.pool.is_empty(), "pool must contain high-PageRank hosts");
        assert_eq!(ctx.sample.len(), ctx.pool.len(), "test scale samples the full pool");
        assert_eq!(ctx.pool_masses().len(), ctx.pool.len());
        // Every pool member clears the scaled-PageRank bar.
        for &x in ctx.pool.iter().take(100) {
            assert!(ctx.estimate.scaled_pagerank(x) >= ctx.opts.rho - 1e-9);
        }
    }

    #[test]
    fn pool_contains_spam_targets() {
        let ctx = Context::build(ExperimentOptions::test_scale());
        let boosted: Vec<_> = ctx
            .scenario
            .farms
            .iter()
            .filter(|f| f.boosters.len() >= 20)
            .map(|f| f.target)
            .collect();
        assert!(!boosted.is_empty(), "scenario should have sizeable farms");
        let in_pool = boosted.iter().filter(|t| ctx.pool.contains(t)).count();
        assert!(
            in_pool * 2 >= boosted.len(),
            "most heavily-boosted targets should clear rho: {in_pool}/{}",
            boosted.len()
        );
    }

    #[test]
    fn anomalous_requires_good_and_isolated() {
        let ctx = Context::build(ExperimentOptions::test_scale());
        let sc = &ctx.scenario;
        for farm in sc.farms.iter().take(3) {
            assert!(!Context::is_anomalous(sc, farm.target));
        }
        let isolated_member = sc
            .good_web
            .communities
            .iter()
            .find(|c| c.spec.isolated)
            .and_then(|c| c.members.iter().find(|&&m| sc.truth.is_good(m)))
            .copied();
        if let Some(m) = isolated_member {
            assert!(Context::is_anomalous(sc, m));
        }
    }
}
