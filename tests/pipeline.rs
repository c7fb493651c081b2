//! End-to-end integration: generator → PageRank → mass estimation →
//! detection → evaluation, across crate boundaries.

use spammass::core::detector::{candidate_pool, detect, DetectorConfig};
use spammass::core::estimate::{EstimatorConfig, MassEstimator};
use spammass::core::GoodCore;
use spammass::graph::io;
use spammass::pagerank::PageRankConfig;
use spammass::synth::scenario::{Scenario, ScenarioConfig};

fn pipeline(hosts: usize, seed: u64) -> (Scenario, spammass::core::estimate::MassEstimate) {
    let scenario = Scenario::generate(&ScenarioConfig::sized(hosts), seed);
    let core = GoodCore::from_nodes(scenario.section_4_2_core());
    let estimate = MassEstimator::new(
        EstimatorConfig::scaled(0.85)
            .with_pagerank(PageRankConfig::default().tolerance(1e-12).max_iterations(200)),
    )
    .estimate(&scenario.graph, &core.as_vec())
    .expect("pipeline graphs converge")
    .into_mass();
    (scenario, estimate)
}

#[test]
fn detector_finds_boosted_targets_with_high_precision() {
    let (scenario, estimate) = pipeline(10_000, 99);
    let det = detect(&estimate, &DetectorConfig { rho: 10.0, tau: 0.99 });
    assert!(!det.is_empty(), "some farms must be caught");

    let spam = det.candidates.iter().filter(|&&x| scenario.truth.is_spam(x)).count();
    let precision = spam as f64 / det.len() as f64;
    assert!(precision > 0.8, "precision {precision}");

    // Large farms that entered the pool are nearly all caught.
    let pool = candidate_pool(&estimate, 10.0);
    let qualifying: Vec<_> = scenario
        .farms
        .iter()
        .filter(|f| f.boosters.len() >= 50)
        .map(|f| f.target)
        .filter(|t| pool.contains(t))
        .collect();
    let caught = qualifying.iter().filter(|t| det.is_candidate(**t)).count();
    // Hijacked stray links push some targets' m~ just below 0.99, so a
    // modest recall floor is the right assertion at this tau.
    assert!(
        caught * 10 >= qualifying.len() * 6,
        "recall of big farms: {caught}/{}",
        qualifying.len()
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let (s1, e1) = pipeline(6_000, 5);
    let (s2, e2) = pipeline(6_000, 5);
    assert_eq!(s1.graph.edge_count(), s2.graph.edge_count());
    assert_eq!(e1.relative, e2.relative);
    let d1 = detect(&e1, &DetectorConfig::default());
    let d2 = detect(&e2, &DetectorConfig::default());
    assert_eq!(d1.candidates, d2.candidates);
}

#[test]
fn scenario_graph_survives_io_round_trip() {
    let (scenario, estimate) = pipeline(6_000, 3);
    // Binary round trip.
    let bytes = io::graph_to_bytes_v3(&scenario.graph);
    let (loaded, _) = io::graph_from_image(std::sync::Arc::new(bytes)).expect("decode");
    assert_eq!(loaded.node_count(), scenario.graph.node_count());
    assert_eq!(loaded.edge_count(), scenario.graph.edge_count());

    // Re-running the estimate on the loaded graph reproduces the scores.
    let core = GoodCore::from_nodes(scenario.section_4_2_core());
    let estimate2 = MassEstimator::new(
        EstimatorConfig::scaled(0.85)
            .with_pagerank(PageRankConfig::default().tolerance(1e-12).max_iterations(200)),
    )
    .estimate(&loaded, &core.as_vec())
    .expect("pipeline graphs converge")
    .into_mass();
    assert_eq!(estimate.relative, estimate2.relative);

    // Label round trip.
    let mut buf = Vec::new();
    io::write_labels(&scenario.labels, &mut buf).expect("write labels");
    let labels = io::read_labels(&buf[..]).expect("read labels");
    assert_eq!(labels.len(), scenario.labels.len());
}

#[test]
fn good_core_members_get_negative_mass() {
    let (scenario, estimate) = pipeline(6_000, 21);
    let core = scenario.section_4_2_core();
    let negative = core.iter().filter(|&&x| estimate.absolute[x.index()] < 0.0).count();
    assert!(
        negative * 3 > core.len() * 2,
        "most core hosts should have negative mass: {negative}/{}",
        core.len()
    );
}

#[test]
fn isolated_hosts_score_baseline_pagerank() {
    let (scenario, estimate) = pipeline(6_000, 13);
    for &x in scenario.good_web.isolated.iter().take(50) {
        // No inlinks: scaled PageRank exactly 1, mass exactly p (no core
        // flow) => relative mass 1... unless the host is in the core.
        assert!((estimate.scaled_pagerank(x) - 1.0).abs() < 1e-6);
    }
}
