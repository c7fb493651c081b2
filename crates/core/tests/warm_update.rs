//! Warm update ≍ cold re-estimate.
//!
//! A ~10k-host scenario evolves by one step of farm growth (about 1 % of
//! its edges, as a journal of `DeltaRecord`s). `MassEstimator::update`
//! folds that journal into the saved state and re-solves from the saved
//! scores; a cold `estimate` of the patched graph and core is the oracle.
//! The warm path must not fall back, must flag the same hosts, must agree
//! with the oracle to 1e-9 per score, and must take fewer sweeps for `p`.

use spammass_core::detector::{detect, DetectorConfig};
use spammass_core::estimate::{EstimatorConfig, MassEstimator};
use spammass_delta::{GraphDelta, SavedState};
use spammass_pagerank::PageRankConfig;
use spammass_synth::scenario::{Scenario, ScenarioConfig};

#[test]
fn a_warm_update_agrees_with_a_cold_estimate_in_fewer_sweeps() {
    let config = ScenarioConfig::sized(10_000).with_evolve_steps(1);
    let scenario = Scenario::generate(&config, 0xBEEF);
    let core = scenario.section_4_2_core();
    let records = scenario.evolve(&config, 0xBEEF).all_records();
    assert!(!records.is_empty(), "the evolve step produced no records");

    // 1e-12 keeps both paths well inside the 1e-9 agreement budget (an L1
    // residual of 1e-12 bounds the fixed-point error by about 6e-12).
    let estimator = MassEstimator::new(
        EstimatorConfig::scaled(0.85)
            .with_pagerank(PageRankConfig::default().tolerance(1e-12).max_iterations(1_000)),
    );
    let detector = DetectorConfig { rho: 10.0, tau: 0.98 };
    let base = estimator.estimate(&scenario.graph, &core).expect("base estimate converges");

    let mut cold_graph = scenario.graph.clone();
    let mut cold_core = core.clone();
    let delta = GraphDelta::from_records(&records);
    delta.apply(&mut cold_graph);
    delta.apply_to_core(&mut cold_core);
    let cold = estimator.estimate(&cold_graph, &cold_core).expect("cold estimate converges");
    let cold_detection = detect(&cold.mass, &detector);

    let saved = SavedState {
        graph: scenario.graph,
        core,
        pagerank: base.pagerank.clone(),
        core_pagerank: base.core_pagerank.clone(),
    };
    let warm = estimator.update(saved, &records, &detector).expect("warm update converges");

    assert!(warm.warm, "the warm path fell back to a cold solve");
    assert!(!cold_detection.candidates.is_empty(), "the cold estimate flagged nothing");
    assert_eq!(warm.detection.candidates, cold_detection.candidates, "flagged sets differ");
    let max_diff = warm
        .estimate
        .pagerank
        .iter()
        .zip(&cold.pagerank)
        .chain(warm.estimate.core_pagerank.iter().zip(&cold.core_pagerank))
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_diff <= 1e-9, "warm and cold scores differ by {max_diff:e}");
    let warm_sweeps = warm.estimate.pagerank_diag.as_ref().map_or(0, |d| d.iterations);
    let cold_sweeps = cold.pagerank_diag.as_ref().map_or(0, |d| d.iterations);
    assert!(
        0 < warm_sweeps && warm_sweeps < cold_sweeps,
        "the warm solve took {warm_sweeps} sweeps for p, the cold one {cold_sweeps}"
    );
}
