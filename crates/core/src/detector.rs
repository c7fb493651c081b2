//! Algorithm 2: mass-based spam detection (Section 3.6).
//!
//! ```text
//! input : good core Ṽ⁺, relative mass threshold τ, PageRank threshold ρ
//! output: set of spam candidates S
//!
//! S ← ∅
//! compute PageRank scores p
//! construct w based on Ṽ⁺ and compute p′
//! m̃ ← (p − p′)/p
//! for each node x with p_x ≥ ρ:
//!     if m̃_x ≥ τ: S ← S ∪ {x}
//! ```
//!
//! ρ is quoted on the paper's scaled axis (`n/(1−c)` scaling; ρ = 10 in
//! the Yahoo! experiments, 1.5 in the worked Figure 2 example). The
//! rationale for the PageRank floor (Section 3.6): low-PageRank nodes are
//! not significant spam beneficiaries, their mass estimates rest on little
//! evidence, and tiny absolute errors explode into huge relative-mass
//! errors.

use crate::estimate::MassEstimate;
use spammass_graph::NodeId;
use spammass_obs as obs;

/// Thresholds of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// PageRank threshold ρ on the **scaled** score (`n/(1−c)` scale).
    pub rho: f64,
    /// Relative-mass threshold τ.
    pub tau: f64,
}

impl Default for DetectorConfig {
    /// The Yahoo! experiment setting: ρ = 10, τ = 0.98 (the threshold at
    /// which Figure 4 reports ~100% precision with anomalies excluded).
    fn default() -> Self {
        DetectorConfig { rho: 10.0, tau: 0.98 }
    }
}

/// Result of running the detector.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Spam candidates `S`, ascending by node id.
    pub candidates: Vec<NodeId>,
    /// Number of nodes that passed the PageRank filter (`|T|`).
    pub considered: usize,
    /// The thresholds used.
    pub config: DetectorConfig,
}

impl Detection {
    /// Whether `x` was flagged.
    pub fn is_candidate(&self, x: NodeId) -> bool {
        self.candidates.binary_search(&x).is_ok()
    }

    /// Number of candidates `|S|`.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether no candidate was flagged.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}

/// How the flagged set changed between two detector runs — the heart of
/// the incremental re-estimation report: after a crawl delta, reviewers
/// care about *churn* (what became spam, what was cleared), not the full
/// candidate list again.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectionDiff {
    /// Flagged now but not before, ascending by node id.
    pub newly_flagged: Vec<NodeId>,
    /// Flagged before but not now, ascending by node id.
    pub newly_cleared: Vec<NodeId>,
    /// Flagged in both runs, ascending by node id.
    pub still_flagged: Vec<NodeId>,
}

impl DetectionDiff {
    /// Diffs two detections by a single merge of their sorted candidate
    /// lists. The runs may cover different node counts (the graph grew):
    /// a node that only exists in the new run can only be newly flagged.
    pub fn between(previous: &Detection, current: &Detection) -> DetectionDiff {
        let mut diff = DetectionDiff::default();
        let mut old = previous.candidates.iter().copied().peekable();
        let mut new = current.candidates.iter().copied().peekable();
        loop {
            match (old.peek().copied(), new.peek().copied()) {
                (Some(a), Some(b)) if a == b => {
                    diff.still_flagged.push(a);
                    old.next();
                    new.next();
                }
                (Some(a), Some(b)) if a < b => {
                    diff.newly_cleared.push(a);
                    old.next();
                }
                (Some(_), Some(b)) => {
                    diff.newly_flagged.push(b);
                    new.next();
                }
                (Some(a), None) => {
                    diff.newly_cleared.push(a);
                    old.next();
                }
                (None, Some(b)) => {
                    diff.newly_flagged.push(b);
                    new.next();
                }
                (None, None) => break,
            }
        }
        diff
    }

    /// Whether the flagged set did not change at all.
    pub fn is_unchanged(&self) -> bool {
        self.newly_flagged.is_empty() && self.newly_cleared.is_empty()
    }

    /// Total churn: flips in either direction.
    pub fn churn(&self) -> usize {
        self.newly_flagged.len() + self.newly_cleared.len()
    }
}

/// Runs the filtering/labelling steps of Algorithm 2 on a pre-computed
/// mass estimate.
///
/// Splitting estimation from detection mirrors Section 4.4 ("with relative
/// mass values already available, only the filtering and labeling steps
/// ... were to be performed") and makes τ/ρ sweeps (Figures 4–5) cheap.
pub fn detect(estimate: &MassEstimate, config: &DetectorConfig) -> Detection {
    detect_raw(&estimate.pagerank, &estimate.relative, estimate.scale(), config)
}

/// Algorithm 2 on raw score vectors: `pagerank` (unscaled), a relative
/// mass vector, and the `n/(1−c)` scale factor that maps `config.rho`
/// onto the raw scores.
///
/// Use this when the relative-mass vector comes from something other
/// than a [`MassEstimate`] — a spam-core estimate `m̂ = M̂/p`, a combined
/// estimator, or an external scoring source.
///
/// # Panics
/// Panics when `pagerank` and `relative` differ in length — an API-contract
/// violation (both always come from the same run), not a data condition.
pub fn detect_raw(
    pagerank: &[f64],
    relative: &[f64],
    scale: f64,
    config: &DetectorConfig,
) -> Detection {
    assert_eq!(pagerank.len(), relative.len(), "score length mismatch");
    let mut span = obs::span("detect");
    if pagerank.is_empty() || scale <= 0.0 {
        return Detection { candidates: Vec::new(), considered: 0, config: *config };
    }
    let raw_rho = config.rho / scale;
    let mut candidates = Vec::new();
    let mut considered = 0usize;
    for (i, (&p, &m)) in pagerank.iter().zip(relative).enumerate() {
        if p >= raw_rho {
            considered += 1;
            if m >= config.tau {
                candidates.push(NodeId::from_index(i));
            }
        }
    }
    span.record("considered", considered as f64);
    span.record("candidates", candidates.len() as f64);
    obs::counter("detect.considered", considered as f64);
    obs::counter("detect.candidates", candidates.len() as f64);
    Detection { candidates, considered, config: *config }
}

/// The candidate pool `T` — nodes whose scaled PageRank is at least ρ —
/// without applying the mass threshold. This is the population the paper
/// samples for evaluation (Section 4.4: ρ = 10 gave |T| = 883,328).
pub fn candidate_pool(estimate: &MassEstimate, rho: f64) -> Vec<NodeId> {
    let raw_rho = rho / estimate.scale();
    estimate
        .pagerank
        .iter()
        .enumerate()
        .filter(|(_, &p)| p >= raw_rho)
        .map(|(i, _)| NodeId::from_index(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{EstimatorConfig, MassEstimator};
    use crate::examples_paper::figure2;
    use spammass_pagerank::PageRankConfig;

    fn fig2_estimate() -> MassEstimate {
        let f = figure2();
        MassEstimator::new(
            EstimatorConfig::unscaled()
                .with_pagerank(PageRankConfig::default().tolerance(1e-14).max_iterations(10_000)),
        )
        .estimate(&f.graph, &f.good_core())
        .expect("figure 2 estimation converges")
        .into_mass()
    }

    #[test]
    fn section_3_6_worked_example() {
        // ρ = 1.5, τ = 0.5 on Figure 2 flags exactly {x, g2, s0}:
        // x and s0 correctly, g2 as the false positive caused by the
        // incomplete core.
        let f = figure2();
        let est = fig2_estimate();
        let det = detect(&est, &DetectorConfig { rho: 1.5, tau: 0.5 });
        assert!(det.is_candidate(f.x));
        assert!(det.is_candidate(f.s[0]));
        assert!(det.is_candidate(f.g[2]), "g2 is the documented false positive");
        assert_eq!(det.len(), 3);
        // g0 is excluded: m̃ = 0.31 < τ.
        assert!(!det.is_candidate(f.g[0]));
        // Nodes with scaled PageRank 1 < ρ are never considered:
        // T = {x, g0, g2, s0}.
        assert_eq!(det.considered, 4);
    }

    #[test]
    fn raising_tau_never_adds_candidates() {
        let est = fig2_estimate();
        let low = detect(&est, &DetectorConfig { rho: 1.5, tau: 0.3 });
        let high = detect(&est, &DetectorConfig { rho: 1.5, tau: 0.7 });
        assert!(high.len() <= low.len());
        for c in &high.candidates {
            assert!(low.is_candidate(*c));
        }
    }

    #[test]
    fn raising_rho_never_adds_candidates() {
        let est = fig2_estimate();
        let low = detect(&est, &DetectorConfig { rho: 1.0, tau: 0.5 });
        let high = detect(&est, &DetectorConfig { rho: 4.0, tau: 0.5 });
        assert!(high.len() <= low.len());
        for c in &high.candidates {
            assert!(low.is_candidate(*c));
        }
    }

    #[test]
    fn candidate_pool_matches_considered() {
        let est = fig2_estimate();
        let pool = candidate_pool(&est, 1.5);
        let det = detect(&est, &DetectorConfig { rho: 1.5, tau: 0.5 });
        assert_eq!(pool.len(), det.considered);
    }

    #[test]
    fn detect_raw_maps_rho_through_the_scale() {
        let pagerank = [0.1, 0.2, 0.3, 0.4];
        let relative = [0.99, 0.5, 0.99, -2.0];
        let at = |rho: f64, scale: f64| {
            detect_raw(&pagerank, &relative, scale, &DetectorConfig { rho, tau: 0.98 })
        };
        // ρ = 2.5 on scale 10 is a raw cutoff of 0.25: nodes 2 and 3.
        let narrow = at(2.5, 10.0);
        assert_eq!((narrow.considered, narrow.candidates.clone()), (2, vec![NodeId(2)]));
        // ρ = 1.5 is a raw cutoff of 0.15: node 1 joins the pool, not the
        // flagged set.
        let wide = at(1.5, 10.0);
        assert_eq!((wide.considered, wide.candidates.clone()), (3, vec![NodeId(2)]));
        assert_eq!(at(1.5, 5.0).considered, 2);
        // No scale, or no scores: nothing is considered.
        assert_eq!(at(1.5, 0.0).considered, 0);
        let none = detect_raw(&[], &[], 10.0, &DetectorConfig::default());
        assert!(none.is_empty() && none.considered == 0);

        let est = fig2_estimate();
        let config = DetectorConfig { rho: 1.5, tau: 0.5 };
        let raw = detect_raw(&est.pagerank, &est.relative, est.scale(), &config);
        assert_eq!(raw.candidates, detect(&est, &config).candidates);
    }

    #[test]
    fn default_config_is_paper_setting() {
        let d = DetectorConfig::default();
        assert_eq!(d.rho, 10.0);
        assert_eq!(d.tau, 0.98);
    }

    #[test]
    fn diff_classifies_every_flip() {
        let cfg = DetectorConfig::default();
        let det = |ids: &[u32]| Detection {
            candidates: ids.iter().map(|&i| NodeId(i)).collect(),
            considered: 10,
            config: cfg,
        };
        let diff = DetectionDiff::between(&det(&[1, 3, 5, 9]), &det(&[2, 3, 9, 11]));
        assert_eq!(diff.newly_flagged, vec![NodeId(2), NodeId(11)]);
        assert_eq!(diff.newly_cleared, vec![NodeId(1), NodeId(5)]);
        assert_eq!(diff.still_flagged, vec![NodeId(3), NodeId(9)]);
        assert_eq!(diff.churn(), 4);
        assert!(!diff.is_unchanged());

        let same = DetectionDiff::between(&det(&[2, 7]), &det(&[2, 7]));
        assert!(same.is_unchanged());
        assert_eq!(same.still_flagged.len(), 2);

        let empty = DetectionDiff::between(&det(&[]), &det(&[]));
        assert!(empty.is_unchanged());
        assert_eq!(empty.churn(), 0);
    }

    #[test]
    fn is_candidate_on_empty_detection() {
        let est = fig2_estimate();
        let det = detect(&est, &DetectorConfig { rho: 1000.0, tau: 0.99 });
        assert!(det.is_empty());
        assert!(!det.is_candidate(spammass_graph::NodeId(0)));
    }
}
