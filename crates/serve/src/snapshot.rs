//! An immutable, queryable view of one published state generation.
//!
//! A [`Snapshot`] is loaded once and never mutated. The generation comes
//! in through [`StateDir::load_current`] — the same loader and the same
//! cross-validation `spammass update` and `fsck` use: the `SPAMGRPH` v3
//! image memory-mapped zero-copy where the platform supports it, the
//! score vectors through the checksummed `SPAMSCRS` images. What is the
//! snapshot's own is everything derived — absolute mass, relative mass,
//! the Algorithm 2 flag set, and one rank index per [`RankBy`] axis (the
//! best `min(n, TOPK_LIMIT)` host ids, which `/topk` slices) — computed
//! eagerly at load time with exactly the conventions of `spammass_core`
//! (`M̃ = p − p′` unclamped, `m̃ = M̃/p` with `p = 0 → 0`, flag when
//! `p̂ ≥ ρ` and `m̃ ≥ τ`), so a daemon answer and a `spammass detect` run
//! over the same generation can never disagree.

use crate::service::TOPK_LIMIT;
use crate::ServeError;
use spammass_core::detector::{detect_raw, Detection, DetectorConfig};
use spammass_core::top_k_by;
use spammass_delta::{SavedState, StateDir};
use spammass_graph::{Graph, NodeId};

/// All per-node numbers the service reports for one host, in the scaled
/// (`· n/(1−c)`) convention of the paper's Section 4 — except
/// `relative`, which is the dimensionless `m̃ ∈ (−∞, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeScore {
    /// The host id.
    pub node: u32,
    /// Scaled PageRank `p̂`.
    pub pagerank: f64,
    /// Scaled core-biased PageRank `p̂′`.
    pub core_pagerank: f64,
    /// Scaled estimated absolute mass `M̃` (may be negative under γ
    /// overshoot).
    pub absolute: f64,
    /// Estimated relative mass `m̃`.
    pub relative: f64,
    /// Whether Algorithm 2 flags the host under the snapshot's ρ/τ.
    pub flagged: bool,
}

/// One in-neighbor's share of a node's core PageRank `p′`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contribution {
    /// The linking host.
    pub from: u32,
    /// The linker's own scaled `p̂′`.
    pub core_pagerank: f64,
    /// The scaled flow `c · p′_y / out(y)` it pushes over the link.
    pub contribution: f64,
}

/// Where a node's core PageRank comes from: the per-in-neighbor link
/// flows plus the residual (random jump and dangling redistribution)
/// that no single link accounts for.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The explained host.
    pub node: u32,
    /// Its scaled `p̂′`.
    pub core_pagerank: f64,
    /// Total in-degree (the contribution list may be truncated).
    pub in_degree: usize,
    /// The strongest link flows, descending.
    pub contributions: Vec<Contribution>,
    /// Scaled sum of `c · p′_y / out(y)` over **all** in-neighbors, not
    /// just the listed ones.
    pub linked_total: f64,
    /// `p̂′ − linked_total`: jump mass plus dangling redistribution.
    pub residual: f64,
}

/// Ranking axes of the top-k endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankBy {
    /// Scaled estimated absolute mass `M̃` (the default: "most spam
    /// mass").
    Absolute,
    /// Estimated relative mass `m̃`.
    Relative,
    /// Scaled PageRank `p̂`.
    Pagerank,
}

impl RankBy {
    /// Every axis, in discriminant order: `by as usize` indexes it.
    const ALL: [RankBy; 3] = [RankBy::Absolute, RankBy::Relative, RankBy::Pagerank];

    /// Parses the `by=` query value.
    pub fn parse(s: &str) -> Option<RankBy> {
        match s {
            "absolute" | "mass" => Some(RankBy::Absolute),
            "relative" => Some(RankBy::Relative),
            "pagerank" => Some(RankBy::Pagerank),
            _ => None,
        }
    }

    /// The canonical name echoed back in responses.
    pub fn name(self) -> &'static str {
        match self {
            RankBy::Absolute => "absolute",
            RankBy::Relative => "relative",
            RankBy::Pagerank => "pagerank",
        }
    }
}

/// An immutable, fully cross-validated view of one state generation.
#[derive(Debug)]
pub struct Snapshot {
    /// The generation this snapshot was loaded from.
    pub generation: u64,
    graph: Graph,
    pagerank: Vec<f64>,
    core_pagerank: Vec<f64>,
    relative: Vec<f64>,
    detection: Detection,
    /// Per [`RankBy`] axis (indexed `by as usize`), the best
    /// `min(n, TOPK_LIMIT)` host ids, descending.
    rankings: [Vec<u32>; 3],
    core_len: usize,
    damping: f64,
    mapped: bool,
}

impl Snapshot {
    /// Loads the generation the manifest currently names, mmapping the
    /// graph image where possible, and derives the mass vectors and flag set under
    /// `detector` and `damping`.
    pub fn load(
        state: &StateDir,
        detector: &DetectorConfig,
        damping: f64,
    ) -> Result<Snapshot, ServeError> {
        let (generation, saved) = state.load_current()?;
        let SavedState { graph, core, pagerank, core_pagerank } = saved;
        let n = graph.node_count();

        // Derived vectors, exactly as spammass-core computes them:
        // absolute = p − p′ (no clamping), relative = absolute/p with
        // p = 0 → 0, flags via detect_raw under scale n/(1−c).
        let relative: Vec<f64> = pagerank
            .iter()
            .zip(&core_pagerank)
            .map(|(&p, &pc)| if p > 0.0 { (p - pc) / p } else { 0.0 })
            .collect();
        let scale = n as f64 / (1.0 - damping);
        let detection = detect_raw(&pagerank, &relative, scale, detector);
        // The ranking is a strict total order (score, then the lower id),
        // so the top k of any k ≤ TOPK_LIMIT is a prefix of these.
        let rankings = RankBy::ALL.map(|by| {
            top_k_by(0..n as u32, TOPK_LIMIT, |&x| {
                let i = x as usize;
                match by {
                    RankBy::Absolute => (pagerank[i] - core_pagerank[i]) * scale,
                    RankBy::Relative => relative[i],
                    RankBy::Pagerank => pagerank[i] * scale,
                }
            })
        });
        let mapped = graph.is_zero_copy();
        Ok(Snapshot {
            generation,
            graph,
            pagerank,
            core_pagerank,
            relative,
            detection,
            rankings,
            core_len: core.len(),
            damping,
            mapped,
        })
    }

    /// Number of hosts.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of links.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Size of the good core.
    pub fn core_len(&self) -> usize {
        self.core_len
    }

    /// Damping factor the flag set was derived under.
    pub fn damping(&self) -> f64 {
        self.damping
    }

    /// The `n/(1−c)` factor mapping stored scores onto the paper's
    /// scaled convention.
    pub fn scale(&self) -> f64 {
        self.graph.node_count() as f64 / (1.0 - self.damping)
    }

    /// Whether the graph image is served zero-copy from an mmap.
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// The Algorithm 2 run this snapshot derived at load time.
    pub fn detection(&self) -> &Detection {
        &self.detection
    }

    /// All reported numbers for `node`; `None` when out of range.
    pub fn score(&self, node: u32) -> Option<NodeScore> {
        if node as usize >= self.graph.node_count() {
            return None;
        }
        let i = node as usize;
        let scale = self.scale();
        Some(NodeScore {
            node,
            pagerank: self.pagerank[i] * scale,
            core_pagerank: self.core_pagerank[i] * scale,
            absolute: (self.pagerank[i] - self.core_pagerank[i]) * scale,
            relative: self.relative[i],
            flagged: self.detection.is_candidate(NodeId(node)),
        })
    }

    /// The `k` hosts ranking highest on `by`, descending, ties to the
    /// lower id — read from the rank index built at load, so at most
    /// `min(n, TOPK_LIMIT)` rows whatever `k` asks for.
    pub fn top_k(&self, by: RankBy, k: usize) -> Vec<NodeScore> {
        let ranking = &self.rankings[by as usize];
        ranking[..k.min(ranking.len())].iter().filter_map(|&x| self.score(x)).collect()
    }

    /// Which in-neighbors (and what residual jump share) drive `p′` at
    /// `node`; `limit` caps the listed contributions. `None` when out of
    /// range.
    pub fn explain(&self, node: u32, limit: usize) -> Option<Explanation> {
        if node as usize >= self.graph.node_count() {
            return None;
        }
        let x = NodeId(node);
        let scale = self.scale();
        let c = self.damping;
        let ins = self.graph.in_neighbors(x);
        let mut linked_raw = 0.0f64;
        let flows: Vec<Contribution> = ins
            .iter()
            .map(|&y| {
                let out = self.graph.out_degree(y);
                let raw =
                    if out > 0 { c * self.core_pagerank[y.index()] / out as f64 } else { 0.0 };
                linked_raw += raw;
                Contribution {
                    from: y.0,
                    core_pagerank: self.core_pagerank[y.index()] * scale,
                    contribution: raw * scale,
                }
            })
            .collect();
        let contributions = top_k_by(flows, limit, |f| f.contribution);
        let core_pagerank = self.core_pagerank[node as usize] * scale;
        let linked_total = linked_raw * scale;
        Some(Explanation {
            node,
            core_pagerank,
            in_degree: ins.len(),
            contributions,
            linked_total,
            residual: core_pagerank - linked_total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spammass_delta::StateError;
    use spammass_graph::{GraphBuilder, GraphError};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spammass-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// 4 hosts: 1→0, 2→0, 2→3; core = {2}. Handcrafted score vectors.
    fn publish(dir: &PathBuf, p: &[f64], pc: &[f64]) -> (StateDir, u64) {
        let g = GraphBuilder::from_edges(4, &[(1, 0), (2, 0), (2, 3)]);
        let state = StateDir::new(dir);
        let generation = state.save(&g, &[NodeId(2)], p, pc).unwrap();
        (state, generation)
    }

    #[test]
    fn snapshot_matches_core_conventions() {
        let dir = tmpdir("conventions");
        let p = [0.4, 0.1, 0.3, 0.2];
        let pc = [0.1, 0.0, 0.3, 0.05];
        let (state, generation) = publish(&dir, &p, &pc);
        let detector = DetectorConfig { rho: 1.0, tau: 0.5 };
        let snap = Snapshot::load(&state, &detector, 0.85).unwrap();
        assert_eq!(snap.generation, generation);
        assert_eq!(snap.node_count(), 4);
        assert_eq!(snap.edge_count(), 3);
        assert_eq!(snap.core_len(), 1);
        let scale = 4.0 / 0.15;
        assert!((snap.scale() - scale).abs() < 1e-12);

        let s0 = snap.score(0).unwrap();
        assert!((s0.pagerank - 0.4 * scale).abs() < 1e-9);
        assert!((s0.absolute - 0.3 * scale).abs() < 1e-9);
        assert!((s0.relative - 0.75).abs() < 1e-12);
        // rho = 1 → raw_rho = 1/scale = 0.0375: all four pass the pool;
        // tau = 0.5 flags 0 (m̃ 0.75), 1 (1.0), 3 (0.75) but not 2 (0).
        assert!(s0.flagged);
        assert!(snap.score(1).unwrap().flagged);
        assert!(!snap.score(2).unwrap().flagged);
        assert!(snap.score(3).unwrap().flagged);
        assert!(snap.score(4).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn published_generation_is_served_mapped() {
        let dir = tmpdir("mapped");
        let p = [0.4, 0.1, 0.3, 0.2];
        let pc = [0.1, 0.0, 0.3, 0.05];
        let (state, generation) = publish(&dir, &p, &pc);
        let detector = DetectorConfig { rho: 1.0, tau: 0.5 };
        let snap = Snapshot::load(&state, &detector, 0.85).unwrap();
        // What `/stats` reports: `save` writes the v3 image, the load maps it.
        assert_eq!(snap.is_mapped(), cfg!(unix));
        assert_eq!(snap.generation, generation);
        assert_eq!((snap.node_count(), snap.edge_count()), (4, 3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn top_k_ranks_on_the_requested_axis() {
        let dir = tmpdir("topk");
        let p = [0.4, 0.1, 0.3, 0.2];
        let pc = [0.1, 0.0, 0.3, 0.05];
        let (state, _) = publish(&dir, &p, &pc);
        let snap = Snapshot::load(&state, &DetectorConfig { rho: 1.0, tau: 0.5 }, 0.85).unwrap();

        // Absolute mass: 0.3, 0.1, 0.0, 0.15 → nodes 0, 3, 1, 2.
        let by_mass: Vec<u32> =
            snap.top_k(RankBy::Absolute, 3).into_iter().map(|s| s.node).collect();
        assert_eq!(by_mass, vec![0, 3, 1]);
        // Relative: 0.75, 1.0, 0.0, 0.75 → 1 first, then 0 before 3 (tie
        // breaks to the earlier node).
        let by_rel: Vec<u32> =
            snap.top_k(RankBy::Relative, 4).into_iter().map(|s| s.node).collect();
        assert_eq!(by_rel, vec![1, 0, 3, 2]);
        let by_pr: Vec<u32> = snap.top_k(RankBy::Pagerank, 2).into_iter().map(|s| s.node).collect();
        assert_eq!(by_pr, vec![0, 2]);

        // n < TOPK_LIMIT: the index holds every host, so any k ≥ n is all n.
        for by in RankBy::ALL {
            for k in [0, 1, 4, 5, TOPK_LIMIT, usize::MAX] {
                assert_eq!(snap.top_k(by, k), heap_top_k(&snap, by, k), "{by:?} k = {k}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What `top_k` computed per request before the rank indexes: a heap
    /// over every host on the scaled score the response reports.
    fn heap_top_k(snap: &Snapshot, by: RankBy, k: usize) -> Vec<NodeScore> {
        let all = 0..snap.node_count() as u32;
        let ids = top_k_by(all, k, |&x| {
            let s = snap.score(x).unwrap();
            match by {
                RankBy::Absolute => s.absolute,
                RankBy::Relative => s.relative,
                RankBy::Pagerank => s.pagerank,
            }
        });
        ids.into_iter().filter_map(|x| snap.score(x)).collect()
    }

    #[test]
    fn rank_indexes_equal_a_heap_over_every_host() {
        let dir = tmpdir("rank-index");
        let n = TOPK_LIMIT + 2_000;
        // Few score levels, so ties straddle every cut; p = 0 hosts
        // (relative mass 0) and p′ > p hosts (negative mass, γ overshoot).
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut level = |levels: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % levels) as f64 / 8_000.0
        };
        let p: Vec<f64> = (0..n).map(|_| level(8)).collect();
        let pc: Vec<f64> = (0..n).map(|_| level(10)).collect();
        assert!(p.contains(&0.0));
        assert!(p.iter().zip(&pc).any(|(p, pc)| pc > p));
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i * 7 + 1) % n as u32)).collect();
        let state = StateDir::new(&dir);
        state.save(&GraphBuilder::from_edges(n, &edges), &[NodeId(0)], &p, &pc).unwrap();
        let snap = Snapshot::load(&state, &DetectorConfig::default(), 0.85).unwrap();

        for by in RankBy::ALL {
            for k in [0, 1, 100, TOPK_LIMIT] {
                assert_eq!(snap.top_k(by, k), heap_top_k(&snap, by, k), "{by:?} k = {k}");
            }
            for k in [TOPK_LIMIT + 1, n + 5] {
                assert_eq!(snap.top_k(by, k).len(), TOPK_LIMIT, "{by:?} k = {k}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explain_splits_links_from_residual() {
        let dir = tmpdir("explain");
        let p = [0.4, 0.1, 0.3, 0.2];
        let pc = [0.1, 0.02, 0.3, 0.05];
        let (state, _) = publish(&dir, &p, &pc);
        let snap = Snapshot::load(&state, &DetectorConfig { rho: 1.0, tau: 0.5 }, 0.85).unwrap();
        let scale = snap.scale();

        // Node 0 has in-neighbors 1 (out-degree 1) and 2 (out-degree 2):
        // flows 0.85·0.02/1 = 0.017 and 0.85·0.3/2 = 0.1275.
        let ex = snap.explain(0, 10).unwrap();
        assert_eq!(ex.in_degree, 2);
        assert_eq!(ex.contributions.len(), 2);
        assert_eq!(ex.contributions[0].from, 2);
        assert!((ex.contributions[0].contribution - 0.1275 * scale).abs() < 1e-9);
        assert_eq!(ex.contributions[1].from, 1);
        assert!((ex.linked_total - (0.017 + 0.1275) * scale).abs() < 1e-9);
        assert!((ex.residual - (0.1 - 0.1445) * scale).abs() < 1e-9);

        // limit truncates but linked_total still covers every link.
        let ex1 = snap.explain(0, 1).unwrap();
        assert_eq!(ex1.contributions.len(), 1);
        assert!((ex1.linked_total - ex.linked_total).abs() < 1e-12);
        assert!(snap.explain(99, 1).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_vectors_are_rejected() {
        let dir = tmpdir("mismatch");
        let p = [0.25, 0.25, 0.25, 0.25];
        let pc = [0.1, 0.1, 0.1, 0.1];
        let (state, generation) = publish(&dir, &p, &pc);
        let gen_dir = state.generation_path(generation);
        std::fs::write(
            gen_dir.join(StateDir::PAGERANK_FILE),
            spammass_delta::scores_to_bytes(&[0.5; 9]),
        )
        .unwrap();
        assert!(Snapshot::load(&state, &DetectorConfig::default(), 0.85).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flat_layout_is_not_served() {
        // A generation's files lying at the root with no manifest: the
        // layout before generations. There is no generation to tag
        // answers with, so nothing is served.
        let src = tmpdir("flat-src");
        let (published, generation) = publish(&src, &[0.25; 4], &[0.1; 4]);
        let dir = tmpdir("flat");
        std::fs::create_dir_all(&dir).unwrap();
        for f in [
            StateDir::GRAPH_FILE,
            StateDir::PAGERANK_FILE,
            StateDir::CORE_PAGERANK_FILE,
            StateDir::CORE_FILE,
        ] {
            std::fs::copy(published.generation_path(generation).join(f), dir.join(f)).unwrap();
        }
        match Snapshot::load(&StateDir::new(&dir), &DetectorConfig::default(), 0.85) {
            Err(ServeError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "{e}");
                assert!(e.to_string().contains("no published generation"), "{e}");
            }
            other => panic!("expected a NotFound i/o error, got {:?}", other.err()),
        }
        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_retired_image_is_not_served() {
        let dir = tmpdir("retired");
        let (state, generation) = publish(&dir, &[0.25; 4], &[0.1; 4]);
        let mut v2 = b"SPAMGRPH".to_vec();
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.extend_from_slice(&4u64.to_le_bytes());
        v2.extend_from_slice(&3u64.to_le_bytes());
        std::fs::write(state.generation_path(generation).join(StateDir::GRAPH_FILE), v2).unwrap();
        match Snapshot::load(&state, &DetectorConfig::default(), 0.85) {
            Err(ServeError::State(StateError::Graph(GraphError::Corrupt(msg)))) => {
                assert!(msg.contains("unsupported version 2"), "{msg}");
            }
            other => panic!("expected a corrupt image, got {:?}", other.err()),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
