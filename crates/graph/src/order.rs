//! Locality-improving node order, baked into an image once.
//!
//! The PageRank gather kernel reads `p[x]` and `coef[x]` for every
//! in-neighbour `x` of every destination — a random-access pattern whose
//! cache behaviour is set entirely by how node ids are laid out. On the
//! paper's 73.3M-host graph those two arrays are ~1.2 GB; with crawl-order
//! ids each gather is a near-guaranteed cache miss. Renumbering nodes so
//! that frequently-read sources sit close together turns many of those
//! misses into hits without changing a single arithmetic operation:
//! PageRank is permutation-equivariant (`PR(πG)(π(x)) = PR(G)(x)`,
//! because the linear system `(I − c·Tᵀ)p = (1−c)v` is just re-indexed by
//! a permutation matrix), so the fixed point is the same vector with its
//! entries shuffled — pinned by the engine's parity table.
//!
//! [`NodeOrdering::DegreeDescending`] is the one renumbering: sources with
//! high out-degree are read `out(x)` times per sweep, and packing them at
//! low indices concentrates the hot part of `p`/`coef` into a few cache
//! lines.
//!
//! A [`Permutation`] carries both directions of the mapping. The order is
//! a property of the image: `spammass convert --order degree` applies it
//! once and re-keys the core and label files beside the image through
//! [`Permutation::permute_nodes`], and nothing downstream permutes.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;

/// Which node layout an image is written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeOrdering {
    /// Keep ids as-is (no permutation).
    #[default]
    Natural,
    /// Renumber by out-degree descending (ties: total degree descending,
    /// then original id).
    DegreeDescending,
}

impl NodeOrdering {
    /// Short name used in telemetry and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            NodeOrdering::Natural => "natural",
            NodeOrdering::DegreeDescending => "degree",
        }
    }
}

impl std::str::FromStr for NodeOrdering {
    type Err = String;

    /// Parses the CLI spelling: `none`/`natural`, `degree`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" | "natural" => Ok(NodeOrdering::Natural),
            "degree" => Ok(NodeOrdering::DegreeDescending),
            other => Err(format!("unknown ordering {other:?} (none, degree)")),
        }
    }
}

/// A bijective node renumbering with both directions materialized.
///
/// `old_to_new[old] = new` and `new_to_old[new] = old`: node sets and
/// value vectors map forward into the permuted ids, and back again
/// through the inverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    old_to_new: Vec<u32>,
    new_to_old: Vec<u32>,
}

impl Permutation {
    /// The identity permutation on `n` nodes.
    pub fn identity(n: usize) -> Permutation {
        let map: Vec<u32> = (0..n as u32).collect();
        Permutation { old_to_new: map.clone(), new_to_old: map }
    }

    /// Builds a permutation from its forward map, validating bijectivity.
    ///
    /// # Errors
    /// [`GraphError::Corrupt`] when the map is not a bijection on
    /// `0..map.len()`.
    pub fn from_old_to_new(old_to_new: Vec<u32>) -> Result<Permutation, GraphError> {
        let n = old_to_new.len();
        let mut new_to_old = vec![u32::MAX; n];
        for (old, &new) in old_to_new.iter().enumerate() {
            let slot = new_to_old.get_mut(new as usize).ok_or_else(|| {
                GraphError::Corrupt(format!("permutation maps {old} to out-of-range {new}"))
            })?;
            if *slot != u32::MAX {
                return Err(GraphError::Corrupt(format!(
                    "permutation maps both {} and {old} to {new}",
                    *slot
                )));
            }
            *slot = old as u32;
        }
        Ok(Permutation { old_to_new, new_to_old })
    }

    /// Computes the permutation realizing `ordering` on `graph`.
    pub fn compute(graph: &Graph, ordering: NodeOrdering) -> Permutation {
        match ordering {
            NodeOrdering::Natural => Permutation::identity(graph.node_count()),
            NodeOrdering::DegreeDescending => Permutation::degree_descending(graph),
        }
    }

    /// Degree-descending renumbering: nodes sorted by out-degree
    /// descending, ties by total degree descending, then by original id
    /// (making the result deterministic).
    pub fn degree_descending(graph: &Graph) -> Permutation {
        let mut order: Vec<u32> = (0..graph.node_count() as u32).collect();
        order.sort_by_key(|&x| {
            let node = NodeId(x);
            let out = graph.out_degree(node);
            let total = out + graph.in_degree(node);
            (std::cmp::Reverse(out), std::cmp::Reverse(total), x)
        });
        // `order` is new -> old by construction.
        Permutation::from_new_to_old(order)
    }

    /// Builds from the inverse map (trusted internal callers only: the
    /// vector must already be a bijection).
    fn from_new_to_old(new_to_old: Vec<u32>) -> Permutation {
        let mut old_to_new = vec![0u32; new_to_old.len()];
        for (new, &old) in new_to_old.iter().enumerate() {
            old_to_new[old as usize] = new as u32;
        }
        Permutation { old_to_new, new_to_old }
    }

    /// Number of nodes the permutation covers.
    pub fn len(&self) -> usize {
        self.old_to_new.len()
    }

    /// Whether the permutation covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.old_to_new.is_empty()
    }

    /// Whether this is the identity mapping.
    pub fn is_identity(&self) -> bool {
        self.old_to_new.iter().enumerate().all(|(i, &v)| i as u32 == v)
    }

    /// Maps an original id to its position in the permuted layout.
    ///
    /// Ids beyond the permutation's range map to themselves: permutations
    /// are computed for a fixed node set, and nodes appended later (e.g.
    /// by a delta) keep their natural position.
    #[inline]
    pub fn to_new(&self, old: NodeId) -> NodeId {
        match self.old_to_new.get(old.index()) {
            Some(&new) => NodeId(new),
            None => old,
        }
    }

    /// Maps a permuted id back to the original id (same out-of-range
    /// convention as [`to_new`](Permutation::to_new)).
    #[inline]
    pub fn to_old(&self, new: NodeId) -> NodeId {
        match self.new_to_old.get(new.index()) {
            Some(&old) => NodeId(old),
            None => new,
        }
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        Permutation { old_to_new: self.new_to_old.clone(), new_to_old: self.old_to_new.clone() }
    }

    /// Rebuilds `graph` with nodes renumbered by this permutation.
    ///
    /// # Panics
    /// Panics when the permutation's length differs from the graph's
    /// node count.
    pub fn permute_graph(&self, graph: &Graph) -> Graph {
        assert_eq!(
            self.len(),
            graph.node_count(),
            "permutation covers {} nodes but graph has {}",
            self.len(),
            graph.node_count()
        );
        let mut edges: Vec<(u32, u32)> = graph
            .edges()
            .map(|(f, t)| (self.old_to_new[f.index()], self.old_to_new[t.index()]))
            .collect();
        edges.sort_unstable();
        // A bijection preserves uniqueness and self-loop-freedom.
        Graph::from_sorted_unique_edges(graph.node_count(), &edges)
    }

    /// Maps a list of original-id nodes (e.g. a good core) into the
    /// permuted id space, sorted ascending.
    pub fn permute_nodes(&self, nodes: &[NodeId]) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = nodes.iter().map(|&x| self.to_new(x)).collect();
        out.sort_unstable();
        out
    }

    /// Maps a list of permuted-id nodes back to original ids, sorted
    /// ascending.
    pub fn restore_nodes(&self, nodes: &[NodeId]) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = nodes.iter().map(|&x| self.to_old(x)).collect();
        out.sort_unstable();
        out
    }

    /// Re-indexes a node-indexed vector from original to permuted layout
    /// (`result[new] = values[old]`) — jump vectors and warm-start
    /// scores go in this direction.
    ///
    /// # Panics
    /// Panics when `values.len()` differs from the permutation's length.
    pub fn permute_values<T: Copy>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.len(), "value vector does not match permutation");
        self.new_to_old.iter().map(|&old| values[old as usize]).collect()
    }

    /// Re-indexes a node-indexed vector from permuted back to original
    /// layout (`result[old] = values[new]`) — score vectors come back
    /// through this.
    ///
    /// # Panics
    /// Panics when `values.len()` differs from the permutation's length.
    pub fn restore_values<T: Copy>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.len(), "value vector does not match permutation");
        self.old_to_new.iter().map(|&new| values[new as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn star_plus_chain() -> Graph {
        // Node 0 is a hub (out-degree 4); 5 -> 6 -> 7 is a separate chain.
        GraphBuilder::from_edges(8, &[(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7)])
    }

    #[test]
    fn identity_round_trips() {
        let p = Permutation::identity(5);
        assert!(p.is_identity());
        assert_eq!(p.len(), 5);
        assert_eq!(p.to_new(NodeId(3)), NodeId(3));
        assert_eq!(p.inverse(), p);
    }

    #[test]
    fn degree_ordering_puts_hub_first() {
        let g = star_plus_chain();
        let p = Permutation::degree_descending(&g);
        assert_eq!(p.to_new(NodeId(0)), NodeId(0), "hub keeps slot 0");
        // Out-degree-1 nodes (5, 6) come before the pure sinks.
        assert!(p.to_new(NodeId(5)).index() < p.to_new(NodeId(1)).index());
    }

    #[test]
    fn forward_and_backward_compose_to_identity() {
        let g = star_plus_chain();
        let p = Permutation::compute(&g, NodeOrdering::DegreeDescending);
        for x in g.nodes() {
            assert_eq!(p.to_old(p.to_new(x)), x);
        }
        let values: Vec<f64> = (0..g.node_count()).map(|i| i as f64).collect();
        assert_eq!(p.restore_values(&p.permute_values(&values)), values);
        assert!(p.inverse().inverse() == p);
    }

    #[test]
    fn permuted_graph_is_isomorphic() {
        let g = star_plus_chain();
        let p = Permutation::degree_descending(&g);
        let pg = p.permute_graph(&g);
        assert_eq!(pg.node_count(), g.node_count());
        assert_eq!(pg.edge_count(), g.edge_count());
        for (f, t) in g.edges() {
            assert!(pg.has_edge(p.to_new(f), p.to_new(t)), "edge ({f}, {t}) survives");
        }
        for x in g.nodes() {
            assert_eq!(pg.out_degree(p.to_new(x)), g.out_degree(x));
            assert_eq!(pg.in_degree(p.to_new(x)), g.in_degree(x));
        }
    }

    #[test]
    fn natural_ordering_computes_the_identity() {
        let g = star_plus_chain();
        let p = Permutation::compute(&g, NodeOrdering::Natural);
        assert!(p.is_identity());
        assert_eq!(p.len(), g.node_count());
        assert_eq!(NodeOrdering::default(), NodeOrdering::Natural);
        assert_eq!(NodeOrdering::Natural.name(), "natural");
    }

    #[test]
    fn degree_ties_break_by_total_degree_then_id() {
        // Nodes 1 and 2 both have out-degree 1; 2 also has two in-links,
        // so it ranks first. Nodes 1, 3 and 4 tie on both degrees and keep
        // their id order; the sink 0 comes last.
        let g = GraphBuilder::from_edges(5, &[(1, 0), (2, 0), (3, 2), (4, 2)]);
        let p = Permutation::degree_descending(&g);
        let order: Vec<u32> = (0..5).map(|new| p.to_old(NodeId(new)).0).collect();
        assert_eq!(order, vec![2, 1, 3, 4, 0]);
    }

    #[test]
    fn values_move_forward_and_back_by_opposite_maps() {
        let g = star_plus_chain();
        let p = Permutation::degree_descending(&g);
        let values: Vec<u32> = (0..g.node_count() as u32).map(|i| i * 10).collect();
        let permuted = p.permute_values(&values);
        for x in g.nodes() {
            assert_eq!(permuted[p.to_new(x).index()], values[x.index()], "node {x}");
        }
        let restored = p.restore_values(&permuted);
        assert_eq!(restored, values);
        // Forward then inverse-forward is the same as forward then back.
        assert_eq!(p.inverse().permute_values(&permuted), values);
    }

    #[test]
    fn empty_graph_permutes_to_empty() {
        let g = GraphBuilder::from_edges(0, &[]);
        let p = Permutation::compute(&g, NodeOrdering::DegreeDescending);
        assert!(p.is_empty() && p.is_identity());
        assert_eq!(p.permute_graph(&g).node_count(), 0);
        assert!(p.permute_nodes(&[]).is_empty());
        assert!(p.permute_values::<f64>(&[]).is_empty());
    }

    #[test]
    fn node_lists_map_both_ways() {
        let g = star_plus_chain();
        let p = Permutation::degree_descending(&g);
        let core = vec![NodeId(2), NodeId(6)];
        let mapped = p.permute_nodes(&core);
        assert_eq!(p.restore_nodes(&mapped), core);
    }

    #[test]
    fn out_of_range_ids_pass_through() {
        let p = Permutation::identity(3);
        assert_eq!(p.to_new(NodeId(9)), NodeId(9));
        assert_eq!(p.to_old(NodeId(9)), NodeId(9));
    }

    #[test]
    fn from_old_to_new_validates_bijection() {
        assert!(Permutation::from_old_to_new(vec![1, 0, 2]).is_ok());
        assert!(matches!(Permutation::from_old_to_new(vec![0, 0, 2]), Err(GraphError::Corrupt(_))));
        assert!(matches!(Permutation::from_old_to_new(vec![0, 5]), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn ordering_parses_cli_names() {
        use std::str::FromStr;
        assert_eq!(NodeOrdering::from_str("none").unwrap(), NodeOrdering::Natural);
        assert_eq!(NodeOrdering::from_str("natural").unwrap(), NodeOrdering::Natural);
        assert_eq!(NodeOrdering::from_str("degree").unwrap(), NodeOrdering::DegreeDescending);
        for retired in ["bfs", "zorder"] {
            let err = NodeOrdering::from_str(retired).unwrap_err();
            assert!(err.contains("(none, degree)"), "{err}");
        }
        assert_eq!(NodeOrdering::DegreeDescending.name(), "degree");
    }
}
