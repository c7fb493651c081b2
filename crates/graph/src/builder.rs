//! Incremental edge-list builder producing immutable CSR graphs.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;

/// Collects directed edges and assembles an immutable [`Graph`].
///
/// The builder follows the paper's web-graph model (Section 2.1):
/// unweighted directed links, **no self-links**, and at most one edge per
/// ordered node pair (parallel hyperlinks between two hosts collapse into a
/// single host-level edge, exactly like the Yahoo! host graph of
/// Section 4.1).
///
/// Self-loops and duplicates are silently dropped by [`add_edge`]
/// (mirroring the collapsing crawler pipeline); the checked variant
/// [`try_add_edge`] reports them instead.
///
/// [`add_edge`]: GraphBuilder::add_edge
/// [`try_add_edge`]: GraphBuilder::try_add_edge
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `node_count` nodes
    /// (`NodeId(0) .. NodeId(node_count-1)`).
    pub fn new(node_count: usize) -> Self {
        assert!(node_count <= u32::MAX as usize, "graphs are limited to u32::MAX nodes");
        GraphBuilder { node_count, edges: Vec::new() }
    }

    /// Creates a builder with pre-reserved edge capacity, avoiding
    /// re-allocation when the edge count is known up front.
    pub fn with_capacity(node_count: usize, edge_capacity: usize) -> Self {
        let mut b = Self::new(node_count);
        b.edges.reserve(edge_capacity);
        b
    }

    /// Number of nodes the final graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Grows the node range to at least `node_count` nodes.
    pub fn grow_to(&mut self, node_count: usize) {
        if node_count > self.node_count {
            assert!(node_count <= u32::MAX as usize);
            self.node_count = node_count;
        }
    }

    /// Adds the directed edge `from -> to`, dropping self-loops and leaving
    /// duplicate suppression to [`build`](GraphBuilder::build).
    ///
    /// # Panics
    /// Panics in debug builds if either endpoint is out of range; use
    /// [`try_add_edge`](GraphBuilder::try_add_edge) for checked insertion.
    #[inline]
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        debug_assert!(from.index() < self.node_count, "from node out of range");
        debug_assert!(to.index() < self.node_count, "to node out of range");
        if from == to {
            return;
        }
        self.edges.push((from.0, to.0));
    }

    /// Checked insertion: reports out-of-range endpoints and self-loops.
    pub fn try_add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        if from.index() >= self.node_count {
            return Err(GraphError::NodeOutOfRange { node: from.0, node_count: self.node_count });
        }
        if to.index() >= self.node_count {
            return Err(GraphError::NodeOutOfRange { node: to.0, node_count: self.node_count });
        }
        if from == to {
            return Err(GraphError::SelfLoop { node: from.0 });
        }
        self.edges.push((from.0, to.0));
        Ok(())
    }

    /// Adds every edge in the iterator via [`add_edge`](GraphBuilder::add_edge).
    pub fn extend_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) {
        for (f, t) in iter {
            self.add_edge(f, t);
        }
    }

    /// Builds the immutable graph: lays out both CSR orientations of the
    /// staged edges with duplicates collapsed and every list sorted.
    ///
    /// # Panics
    /// Panics when a staged edge is out of range (only
    /// [`add_edge`](GraphBuilder::add_edge) in a release build can stage
    /// one).
    pub fn build(self) -> Graph {
        Graph::from_edge_list(self.node_count, &self.edges)
    }

    /// Convenience: builds a graph directly from `(from, to)` pairs given as
    /// raw `u32` ids, growing the node range to fit (at least `min_nodes`).
    /// Self-loops are dropped and duplicates collapsed, as
    /// [`build`](GraphBuilder::build) does; `edges` is read in place,
    /// never copied.
    pub fn from_edges(min_nodes: usize, edges: &[(u32, u32)]) -> Graph {
        let max_node = edges.iter().map(|&(f, t)| f.max(t) as usize + 1).max().unwrap_or(0);
        let node_count = min_nodes.max(max_node);
        assert!(node_count <= u32::MAX as usize, "graphs are limited to u32::MAX nodes");
        Graph::from_edge_list(node_count, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn builds_simple_graph() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(0), NodeId(2));
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.in_neighbors(NodeId(2)), &[NodeId(0), NodeId(1)]);
    }

    #[test]
    fn drops_self_loops_silently() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(0));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn dedups_parallel_edges() {
        let mut b = GraphBuilder::new(2);
        for _ in 0..5 {
            b.add_edge(NodeId(0), NodeId(1));
        }
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_degree(NodeId(0)), 1);
        assert_eq!(g.in_degree(NodeId(1)), 1);
    }

    #[test]
    fn try_add_edge_reports_errors() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.try_add_edge(NodeId(0), NodeId(0)),
            Err(GraphError::SelfLoop { node: 0 })
        ));
        assert!(matches!(
            b.try_add_edge(NodeId(0), NodeId(9)),
            Err(GraphError::NodeOutOfRange { node: 9, .. })
        ));
        assert!(b.try_add_edge(NodeId(0), NodeId(1)).is_ok());
        assert_eq!(b.build().edge_count(), 1);
    }

    #[test]
    fn grow_to_extends_range() {
        let mut b = GraphBuilder::new(1);
        b.grow_to(3);
        b.add_edge(NodeId(2), NodeId(0));
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.in_degree(NodeId(0)), 1);
    }

    #[test]
    fn from_edges_infers_node_count() {
        let g = GraphBuilder::from_edges(0, &[(0, 5), (5, 2)]);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn extend_edges_bulk() {
        let mut b = GraphBuilder::new(4);
        b.extend_edges((0..3u32).map(|i| (NodeId(i), NodeId(i + 1))));
        assert_eq!(b.build().edge_count(), 3);
    }
}
