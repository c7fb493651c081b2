//! # spammass-bench
//!
//! Criterion benchmarks for what the whole-system benchmark (`benchmark/`)
//! cannot show. The crate's library part provides shared fixtures; the
//! benches live in `benches/`:
//!
//! * `pagerank` — the engine against Algorithm 1 (Jacobi), and the engine
//!   at one and four threads on a ≥1M-edge web.
//! * `layout` — natural against degree node order, one and four threads,
//!   and the zero-copy load of a v3 image.
//! * `fig4_pipeline`, `fig5_cores`, `fig6_distribution` — regeneration
//!   cost of the corresponding paper figures.

use spammass_core::GoodCore;
use spammass_graph::Graph;
use spammass_synth::scenario::{Scenario, ScenarioConfig};

/// A generated scenario plus its Section 4.2 core, shared by benches.
pub struct Fixture {
    /// The scenario.
    pub scenario: Scenario,
    /// The good core.
    pub core: GoodCore,
}

impl Fixture {
    /// Builds a deterministic fixture with roughly `hosts` hosts.
    pub fn new(hosts: usize) -> Fixture {
        let scenario = Scenario::generate(&ScenarioConfig::sized(hosts), 0xBEEF);
        let core = GoodCore::from_nodes(scenario.section_4_2_core());
        Fixture { scenario, core }
    }

    /// The graph.
    pub fn graph(&self) -> &Graph {
        &self.scenario.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds() {
        let f = Fixture::new(2_000);
        assert!(f.graph().node_count() >= 2_000);
        assert!(!f.core.is_empty());
    }
}
