//! Good-core assembly (Sections 4.2 and 4.5).
//!
//! The paper builds its 504,150-host core from three sources — a trusted
//! web directory, all `.gov` hosts, and hosts of worldwide educational
//! institutions — then studies how core **size** (uniform 10% / 1% / 0.1%
//! subsamples) and **coverage** (a biased single-country core) affect
//! detection. [`GoodCore`] provides those operations, plus the incremental
//! expansion used to kill the Alibaba anomaly in Section 4.4.2.

use rand_shim::SplitMix64;
use spammass_graph::{NodeId, NodeLabels};
use std::collections::BTreeSet;

/// A deduplicated, ordered set of known-good nodes `Ṽ⁺`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GoodCore {
    nodes: BTreeSet<NodeId>,
}

impl GoodCore {
    /// Empty core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Core from an explicit node list (duplicates collapse).
    pub fn from_nodes(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        GoodCore { nodes: nodes.into_iter().collect() }
    }

    /// Number of core members `|Ṽ⁺|`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the core is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, x: NodeId) -> bool {
        self.nodes.contains(&x)
    }

    /// Adds one node (Section 4.4.2's "identify key hosts ... and add them
    /// to the good core"). Returns `true` if it was new.
    pub fn add(&mut self, x: NodeId) -> bool {
        self.nodes.insert(x)
    }

    /// Adds many nodes.
    pub fn extend(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        self.nodes.extend(nodes);
    }

    /// Removes a node; returns `true` if it was present.
    pub fn remove(&mut self, x: NodeId) -> bool {
        self.nodes.remove(&x)
    }

    /// The members as an ascending vector (the form the estimator takes).
    pub fn as_vec(&self) -> Vec<NodeId> {
        self.nodes.iter().copied().collect()
    }

    /// Iterator over members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// Uniform random subsample keeping a `fraction` of members —
    /// Section 4.5's 10% / 1% / 0.1% cores. Deterministic in `seed`.
    /// At least one member is kept when the core is non-empty (an empty
    /// sample would be unusable); sampling an empty core yields an empty
    /// core.
    ///
    /// # Panics
    /// Panics when `fraction` is outside `[0, 1]`.
    pub fn sample_fraction(&self, fraction: f64, seed: u64) -> GoodCore {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
        let mut rng = SplitMix64::new(seed);
        let picked: BTreeSet<NodeId> =
            self.nodes.iter().copied().filter(|_| rng.next_f64() < fraction).collect();
        if picked.is_empty() {
            // Keep the deterministically-first member rather than failing.
            let first = self.nodes.iter().next().copied();
            GoodCore { nodes: first.into_iter().collect() }
        } else {
            GoodCore { nodes: picked }
        }
    }

    /// Restriction to hosts with a given suffix — Section 4.5's biased
    /// ".it educational hosts" core.
    pub fn restrict_to_suffix(&self, labels: &NodeLabels, suffix: &str) -> GoodCore {
        GoodCore {
            nodes: self
                .nodes
                .iter()
                .copied()
                .filter(|&x| labels.name(x).map(|h| h.has_suffix(suffix)).unwrap_or(false))
                .collect(),
        }
    }
}

impl FromIterator<NodeId> for GoodCore {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        GoodCore::from_nodes(iter)
    }
}

/// A tiny, dependency-free deterministic RNG (SplitMix64) so that core
/// subsampling does not force a `rand` dependency on this crate.
mod rand_shim {
    /// SplitMix64 generator (public-domain constants).
    pub struct SplitMix64 {
        state: u64,
    }

    impl SplitMix64 {
        /// Seeds the generator.
        pub fn new(seed: u64) -> Self {
            SplitMix64 { state: seed }
        }

        /// Next raw 64-bit output.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels() -> NodeLabels {
        let mut l = NodeLabels::new();
        l.push("www.irs.gov"); // 0
        l.push("cs.stanford.edu"); // 1
        l.push("spam.example.biz"); // 2
        l.push("uni.roma.it"); // 3
        l.push("nasa.gov"); // 4
        l.push("politecnico.it"); // 5
        l
    }

    #[test]
    fn dedup_and_mutation() {
        let mut core = GoodCore::from_nodes([NodeId(1), NodeId(1), NodeId(2)]);
        assert_eq!(core.len(), 2);
        assert!(core.add(NodeId(3)));
        assert!(!core.add(NodeId(3)));
        assert!(core.remove(NodeId(1)));
        assert!(!core.remove(NodeId(1)));
        assert_eq!(core.as_vec(), vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn sampling_is_deterministic_and_proportional() {
        let core: GoodCore = (0..10_000u32).map(NodeId).collect();
        let s1 = core.sample_fraction(0.1, 42);
        let s2 = core.sample_fraction(0.1, 42);
        assert_eq!(s1, s2, "same seed, same sample");
        let frac = s1.len() as f64 / core.len() as f64;
        assert!((frac - 0.1).abs() < 0.02, "got fraction {frac}");
        let s3 = core.sample_fraction(0.1, 43);
        assert_ne!(s1, s3, "different seed, different sample");
    }

    #[test]
    fn sampling_never_returns_empty() {
        let core: GoodCore = (0..5u32).map(NodeId).collect();
        let s = core.sample_fraction(0.0, 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn sample_is_subset() {
        let core: GoodCore = (0..1000u32).map(NodeId).collect();
        let s = core.sample_fraction(0.3, 7);
        assert!(s.iter().all(|x| core.contains(x)));
    }

    #[test]
    fn restrict_to_suffix_biased_core() {
        let l = labels();
        let all: GoodCore = (0..6u32).map(NodeId).collect();
        let it_core = all.restrict_to_suffix(&l, "it");
        assert_eq!(it_core.as_vec(), vec![NodeId(3), NodeId(5)]);
    }

    #[test]
    fn restrict_skips_unlabelled_nodes() {
        let l = labels();
        let core = GoodCore::from_nodes([NodeId(3), NodeId(100)]);
        let it_core = core.restrict_to_suffix(&l, "it");
        assert_eq!(it_core.as_vec(), vec![NodeId(3)]);
    }

    #[test]
    fn splitmix_is_uniformish() {
        let mut rng = rand_shim::SplitMix64::new(99);
        let mean: f64 = (0..10_000).map(|_| rng.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02);
    }
}
