//! Structural graph statistics matching Section 4.1 of the paper.
//!
//! The Yahoo! 2004 host graph had 73.3M hosts and 979M edges, of which
//! 35% had no inlinks, 66.4% no outlinks, and 25.8% were completely
//! isolated. [`GraphStats`] computes the same numbers for any graph so the
//! synthetic workload can be validated against the paper's shape.

use crate::graph::Graph;

/// Summary statistics of a directed graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Nodes with in-degree zero.
    pub no_inlinks: usize,
    /// Nodes with out-degree zero (dangling).
    pub no_outlinks: usize,
    /// Nodes with neither inlinks nor outlinks.
    pub isolated: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Mean out-degree over all nodes (= edges / nodes).
    pub mean_degree: f64,
}

impl GraphStats {
    /// Computes statistics for `g` in a single pass over the degree arrays.
    pub fn compute(g: &Graph) -> GraphStats {
        let mut no_in = 0usize;
        let mut no_out = 0usize;
        let mut isolated = 0usize;
        let mut max_in = 0usize;
        let mut max_out = 0usize;
        for x in g.nodes() {
            let din = g.in_degree(x);
            let dout = g.out_degree(x);
            if din == 0 {
                no_in += 1;
            }
            if dout == 0 {
                no_out += 1;
            }
            if din == 0 && dout == 0 {
                isolated += 1;
            }
            max_in = max_in.max(din);
            max_out = max_out.max(dout);
        }
        GraphStats {
            nodes: g.node_count(),
            edges: g.edge_count(),
            no_inlinks: no_in,
            no_outlinks: no_out,
            isolated,
            max_in_degree: max_in,
            max_out_degree: max_out,
            mean_degree: if g.node_count() == 0 {
                0.0
            } else {
                g.edge_count() as f64 / g.node_count() as f64
            },
        }
    }

    /// Fraction of nodes with no inlinks (paper: 35%).
    pub fn no_inlinks_fraction(&self) -> f64 {
        ratio(self.no_inlinks, self.nodes)
    }

    /// Fraction of nodes with no outlinks (paper: 66.4%).
    pub fn no_outlinks_fraction(&self) -> f64 {
        ratio(self.no_outlinks, self.nodes)
    }

    /// Fraction of completely isolated nodes (paper: 25.8%).
    pub fn isolated_fraction(&self) -> f64 {
        ratio(self.isolated, self.nodes)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn stats_on_small_graph() {
        // 0->1, 0->2; node 3 isolated.
        let g = GraphBuilder::from_edges(4, &[(0, 1), (0, 2)]);
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 2);
        assert_eq!(s.no_inlinks, 2); // 0 and 3
        assert_eq!(s.no_outlinks, 3); // 1, 2, 3
        assert_eq!(s.isolated, 1); // 3
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_in_degree, 1);
        assert!((s.mean_degree - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fractions() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (0, 2)]);
        let s = GraphStats::compute(&g);
        assert!((s.no_inlinks_fraction() - 0.5).abs() < 1e-12);
        assert!((s.no_outlinks_fraction() - 0.75).abs() < 1e-12);
        assert!((s.isolated_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_stats() {
        let g = GraphBuilder::new(0).build();
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.mean_degree, 0.0);
        assert_eq!(s.isolated_fraction(), 0.0);
    }
}
