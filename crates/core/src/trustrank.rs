//! TrustRank baseline (Gyöngyi, Garcia-Molina & Pedersen, *Combating Web
//! Spam with TrustRank*, VLDB 2004 — reference \[9\] of the paper).
//!
//! Section 5 positions spam mass as **complementary** to TrustRank:
//! "TrustRank helps cleansing top ranking results by identifying reputable
//! nodes. While spam is demoted, it is not detected — this is a gap that we
//! strive to fill". This module implements the TrustRank pipeline so the
//! comparison can be run empirically:
//!
//! 1. **Seed selection** by *inverse PageRank* — PageRank on the reversed
//!    graph ranks nodes by how well trust flowing *out* of them covers the
//!    web;
//! 2. an **oracle** (here: ground truth) keeps only good seeds, up to a
//!    budget `L`;
//! 3. **trust propagation**: biased PageRank with the jump distributed
//!    uniformly over the seed set (a small, highly selective seed — the
//!    paper contrasts this with the mass-estimation core, which should be
//!    "orders of magnitude larger").
//!
//! TrustRank *demotes* (re-ranks); for comparison with the detector we
//! also expose the natural detection heuristic "high PageRank but low
//! trust".

use crate::estimate::{solve_one, EstimateError};
use spammass_graph::{Graph, NodeId};
use spammass_pagerank::{JumpVector, PageRankConfig};

/// TrustRank configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrustRankConfig {
    /// Seed budget `L`: how many top inverse-PageRank nodes are shown to
    /// the oracle.
    pub seed_budget: usize,
    /// PageRank parameters for both the inverse and the trust runs.
    pub pagerank: PageRankConfig,
}

impl Default for TrustRankConfig {
    fn default() -> Self {
        TrustRankConfig { seed_budget: 50, pagerank: PageRankConfig::default() }
    }
}

/// Output of a TrustRank run.
#[derive(Debug, Clone)]
pub struct TrustRank {
    /// The good seeds that passed the oracle.
    pub seeds: Vec<NodeId>,
    /// Trust scores `t = PR(v^seed)` (normalized jump over seeds).
    pub scores: Vec<f64>,
    damping: f64,
}

impl TrustRank {
    /// Trust score of `x`.
    pub fn trust(&self, x: NodeId) -> f64 {
        self.scores[x.index()]
    }

    /// Scale factor `n/(1−c)` (paper-style readable values).
    pub fn scale(&self) -> f64 {
        self.scores.len() as f64 / (1.0 - self.damping)
    }

    /// Nodes ordered by descending trust — TrustRank's demoted ranking.
    pub fn ranking(&self) -> Vec<NodeId> {
        self.top(self.scores.len())
    }

    /// The `k` most-trusted nodes, descending.
    pub fn top(&self, k: usize) -> Vec<NodeId> {
        spammass_pagerank::PageRankScores::new(&self.scores, self.damping)
            .top_k(k)
            .into_iter()
            .map(|(x, _)| x)
            .collect()
    }
}

/// Ranks nodes by inverse PageRank: PageRank computed on the reversed
/// graph with a uniform jump. High scorers reach (in the forward graph)
/// many nodes quickly — good seed candidates.
///
/// # Errors
/// [`EstimateError::Solver`] when the solve fails.
pub fn inverse_pagerank(graph: &Graph, config: &PageRankConfig) -> Result<Vec<f64>, EstimateError> {
    solve_one(&graph.reversed(), JumpVector::Uniform, config, "inverse-pagerank")
}

/// Selects up to `budget` good seeds: the top inverse-PageRank nodes that
/// the oracle confirms as good.
///
/// # Errors
/// Propagates [`inverse_pagerank`] failures.
pub fn select_seeds<F: FnMut(NodeId) -> bool>(
    graph: &Graph,
    config: &TrustRankConfig,
    mut oracle_is_good: F,
) -> Result<Vec<NodeId>, EstimateError> {
    let inv = inverse_pagerank(graph, &config.pagerank)?;
    let ranked =
        spammass_pagerank::PageRankScores::new(&inv, config.pagerank.damping).top_k(inv.len());
    let mut seeds = Vec::new();
    for (x, _) in ranked {
        if seeds.len() >= config.seed_budget {
            break;
        }
        if oracle_is_good(x) {
            seeds.push(x);
        }
    }
    seeds.sort_unstable();
    Ok(seeds)
}

/// Runs the full TrustRank pipeline.
///
/// # Errors
/// [`EstimateError::EmptyCore`] when no seed passes the oracle (trust
/// would be identically zero); solver failures as in
/// [`trustrank_with_seeds`].
pub fn trustrank<F: FnMut(NodeId) -> bool>(
    graph: &Graph,
    config: &TrustRankConfig,
    oracle_is_good: F,
) -> Result<TrustRank, EstimateError> {
    let seeds = select_seeds(graph, config, oracle_is_good)?;
    trustrank_with_seeds(graph, &config.pagerank, seeds)
}

/// Trust propagation from an explicit seed set: `t = PR(v_seed)` with the
/// jump normalized over the seeds (`‖v‖ = 1`, TrustRank's convention).
///
/// # Errors
/// [`EstimateError::EmptyCore`] on an empty seed set;
/// [`EstimateError::Solver`] when the solve fails.
pub fn trustrank_with_seeds(
    graph: &Graph,
    config: &PageRankConfig,
    seeds: Vec<NodeId>,
) -> Result<TrustRank, EstimateError> {
    if seeds.is_empty() {
        return Err(EstimateError::EmptyCore);
    }
    let scores = solve_one(graph, JumpVector::scaled_core(seeds.clone(), 1.0), config, "trust")?;
    Ok(TrustRank { seeds, scores, damping: config.damping })
}

/// Detection heuristic on top of TrustRank: flag nodes whose scaled
/// PageRank is at least `rho` but whose trust share
/// `t_x / p_x` falls below `min_trust_ratio`.
///
/// This is the natural way to press a demotion signal into detection
/// service, and the comparative experiment shows where it falls short of
/// mass estimation (it cannot distinguish "unknown" from "spam-supported").
///
/// # Panics
/// Panics when `trust` and `pagerank` differ in length — an API-contract
/// violation (both come from runs over the same graph), not a data
/// condition.
pub fn detect_low_trust(
    trust: &TrustRank,
    pagerank: &[f64],
    rho: f64,
    min_trust_ratio: f64,
) -> Vec<NodeId> {
    assert_eq!(trust.scores.len(), pagerank.len(), "score length mismatch");
    let n = pagerank.len();
    let scale = n as f64 / (1.0 - trust.damping);
    let raw_rho = rho / scale;
    (0..n)
        .filter(|&i| {
            pagerank[i] >= raw_rho && {
                let ratio = if pagerank[i] > 0.0 { trust.scores[i] / pagerank[i] } else { 0.0 };
                ratio < min_trust_ratio
            }
        })
        .map(NodeId::from_index)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::figure2;
    use spammass_graph::GraphBuilder;

    fn cfg() -> TrustRankConfig {
        TrustRankConfig {
            seed_budget: 3,
            pagerank: PageRankConfig::default().tolerance(1e-14).max_iterations(10_000),
        }
    }

    #[test]
    fn inverse_pagerank_favours_sources() {
        // 0 -> 1 -> 2: in the reversed graph 2 feeds 1 feeds 0, so
        // inverse PageRank ranks 2 highest — trust seeded there reaches
        // everything. Wait: reversed edges are 1->0, 2->1, so node 0
        // *receives* most in the reversed graph.
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]);
        let inv = inverse_pagerank(&g, &cfg().pagerank).unwrap();
        assert!(inv[0] > inv[1]);
        assert!(inv[1] > inv[2]);
    }

    #[test]
    fn seed_selection_respects_oracle_and_budget() {
        let f = figure2();
        let partition = f.partition();
        let seeds = select_seeds(&f.graph, &cfg(), |x| partition.is_good(x)).unwrap();
        assert!(!seeds.is_empty());
        assert!(seeds.len() <= 3);
        for s in &seeds {
            assert!(partition.is_good(*s), "oracle must filter spam seeds");
        }
    }

    #[test]
    fn trust_zero_for_nodes_unreachable_from_seeds() {
        let f = figure2();
        let tr = trustrank_with_seeds(&f.graph, &cfg().pagerank, vec![f.g[1]]).unwrap();
        // g1 -> g0 -> x is the only trust path; s-nodes get nothing.
        assert!(tr.trust(f.s[0]) == 0.0);
        assert!(tr.trust(f.g[0]) > 0.0);
        assert!(tr.trust(f.x) > 0.0);
        assert!(tr.trust(f.g[2]) == 0.0);
    }

    #[test]
    fn ranking_demotes_spam_on_figure2() {
        let f = figure2();
        let partition = f.partition();
        let tr = trustrank(&f.graph, &cfg(), |x| partition.is_good(x)).unwrap();
        let ranking = tr.ranking();
        // Under regular PageRank s0 outranks g0; under TrustRank it must not.
        let pos = |node: NodeId| ranking.iter().position(|&r| r == node).unwrap();
        assert!(pos(f.g[0]) < pos(f.s[0]), "trust should demote s0 below g0");
    }

    #[test]
    fn low_trust_detection_flags_spam_target() {
        let f = figure2();
        let partition = f.partition();
        let pr_cfg = cfg().pagerank;
        let p = solve_one(&f.graph, JumpVector::Uniform, &pr_cfg, "pagerank").unwrap();
        let tr = trustrank(&f.graph, &cfg(), |x| partition.is_good(x)).unwrap();
        let flagged = detect_low_trust(&tr, &p, 1.5, 0.5);
        assert!(flagged.contains(&f.s[0]), "s0 has high PR and no trust");
    }

    #[test]
    fn rejects_empty_seed_set() {
        let g = GraphBuilder::from_edges(2, &[(0, 1)]);
        let err = trustrank_with_seeds(&g, &PageRankConfig::default(), vec![]).unwrap_err();
        assert!(matches!(err, EstimateError::EmptyCore), "{err:?}");
    }
}
