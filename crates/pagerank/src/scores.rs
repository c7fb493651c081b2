//! Score views: scaling, ranking, and summary helpers.

use spammass_graph::NodeId;

/// A borrowed view over raw PageRank scores with the paper's scaling
/// conventions attached.
///
/// Throughout the paper, "numeric PageRank scores and absolute mass values
/// are scaled by `n/(1−c)` for increased readability. Accordingly, the
/// scaled PageRank score of a node without inlinks is 1." All thresholds
/// (ρ = 10, the ±scaled-mass axes of Figure 6) are quoted on that scale.
#[derive(Debug, Clone, Copy)]
pub struct PageRankScores<'a> {
    raw: &'a [f64],
    damping: f64,
}

impl<'a> PageRankScores<'a> {
    /// Wraps raw scores with the damping factor they were computed under.
    pub fn new(raw: &'a [f64], damping: f64) -> Self {
        PageRankScores { raw, damping }
    }

    /// Raw (solver-native) scores.
    pub fn raw(&self) -> &'a [f64] {
        self.raw
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether there are no scores.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The scale factor `n/(1−c)`.
    pub fn scale(&self) -> f64 {
        self.raw.len() as f64 / (1.0 - self.damping)
    }

    /// Raw score of one node.
    pub fn get(&self, x: NodeId) -> f64 {
        self.raw[x.index()]
    }

    /// Scaled score of one node (no-inlink node ⇒ 1.0 under uniform jump).
    pub fn scaled(&self, x: NodeId) -> f64 {
        self.raw[x.index()] * self.scale()
    }

    /// The `k` highest-scoring nodes, descending (ties by ascending id).
    ///
    /// Uses [`f64::total_cmp`], so the ordering is total even if NaN scores
    /// slip in (NaN sorts above every number and therefore surfaces at the
    /// front of the ranking, where it is visible, instead of silently
    /// scrambling the comparator).
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, f64)> {
        let mut idx: Vec<usize> = (0..self.raw.len()).collect();
        idx.sort_by(|&a, &b| self.raw[b].total_cmp(&self.raw[a]).then(a.cmp(&b)));
        idx.into_iter().take(k).map(|i| (NodeId::from_index(i), self.raw[i])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_round_trip() {
        let raw: Vec<f64> = (0..12).map(|i| (i as f64 + 1.0) / 1000.0).collect();
        let s = PageRankScores::new(&raw, 0.85);
        assert!((s.scale() - 80.0).abs() < 1e-12);
        assert!((s.scaled(NodeId(0)) - raw[0] * 80.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_is_total_under_nan() {
        // A NaN score must not scramble the ordering of the finite scores;
        // total_cmp sorts NaN first (most visible), finite scores after.
        let raw = vec![0.1, f64::NAN, 0.3, 0.2];
        let s = PageRankScores::new(&raw, 0.85);
        let top = s.top_k(4);
        assert!(top[0].1.is_nan());
        assert_eq!(top[1].0, NodeId(2));
        assert_eq!(top[2].0, NodeId(3));
        assert_eq!(top[3].0, NodeId(0));
    }

    #[test]
    fn top_k_sorted_desc() {
        let raw = vec![0.1, 0.5, 0.3, 0.5];
        let s = PageRankScores::new(&raw, 0.85);
        let top = s.top_k(3);
        assert_eq!(top[0].0, NodeId(1)); // tie broken by id
        assert_eq!(top[1].0, NodeId(3));
        assert_eq!(top[2].0, NodeId(2));
    }

    #[test]
    fn length_and_emptiness() {
        let raw = vec![0.25, 0.25];
        let s = PageRankScores::new(&raw, 0.85);
        assert!(!s.is_empty());
        assert_eq!(s.len(), 2);
        let empty = PageRankScores::new(&[], 0.85);
        assert!(empty.is_empty());
    }
}
