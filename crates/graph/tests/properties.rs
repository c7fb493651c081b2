//! Property-based invariants of the graph substrate.

use proptest::prelude::*;
use spammass_graph::{
    io, subgraph, traversal, Graph, GraphBuilder, NodeId, NodeOrdering, Permutation,
};
use std::sync::Arc;

/// Arbitrary graph: up to 30 nodes, up to 120 raw edges (duplicates and
/// self-loops included to exercise the builder's cleaning).
fn arb_graph() -> impl Strategy<Value = (Graph, Vec<(u32, u32)>)> {
    (1usize..=30).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..120).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for &(f, t) in &edges {
                b.add_edge(NodeId(f), NodeId(t));
            }
            (b.build(), edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The built graph holds exactly the deduplicated, self-loop-free
    /// edge set, in both orientations.
    #[test]
    fn builder_cleans_and_preserves_edges((g, raw) in arb_graph()) {
        let mut expected: Vec<(u32, u32)> =
            raw.into_iter().filter(|(f, t)| f != t).collect();
        expected.sort_unstable();
        expected.dedup();
        let got: Vec<(u32, u32)> = g.edges().map(|(f, t)| (f.0, t.0)).collect();
        prop_assert_eq!(&got, &expected);

        // In-CSR is the exact transpose.
        let mut transposed: Vec<(u32, u32)> = Vec::new();
        for y in g.nodes() {
            for &x in g.in_neighbors(y) {
                transposed.push((x.0, y.0));
            }
        }
        transposed.sort_unstable();
        prop_assert_eq!(&transposed, &expected);
    }

    /// Degree sums equal the edge count in both orientations.
    #[test]
    fn degree_sums_match_edge_count((g, _) in arb_graph()) {
        let out_sum: usize = g.nodes().map(|x| g.out_degree(x)).sum();
        let in_sum: usize = g.nodes().map(|x| g.in_degree(x)).sum();
        prop_assert_eq!(out_sum, g.edge_count());
        prop_assert_eq!(in_sum, g.edge_count());
    }

    /// Text and binary (v3 and v4) round trips reproduce the graph
    /// exactly.
    #[test]
    fn io_round_trips((g, _) in arb_graph()) {
        let image = |bytes: Vec<u8>| io::graph_from_image(Arc::new(bytes)).unwrap().0;
        let from_bin = image(io::graph_to_bytes_v3(&g));
        let from_v4 = image(spammass_graph::graph_to_bytes_v4(&g));
        let mut text = Vec::new();
        io::write_edge_list(&g, &mut text).unwrap();
        let from_text = io::read_edge_list(&text[..]).unwrap();
        for other in [&from_bin, &from_v4, &from_text] {
            prop_assert_eq!(other.node_count(), g.node_count());
            prop_assert_eq!(other.edge_count(), g.edge_count());
            for x in g.nodes() {
                prop_assert_eq!(other.out_neighbors(x), g.out_neighbors(x));
            }
        }
    }

    /// Reversing twice is the identity; reversal swaps degree roles.
    #[test]
    fn double_reverse_is_identity((g, _) in arb_graph()) {
        let rr = g.reversed().reversed();
        for x in g.nodes() {
            prop_assert_eq!(rr.out_neighbors(x), g.out_neighbors(x));
        }
        let r = g.reversed();
        for x in g.nodes() {
            prop_assert_eq!(r.out_degree(x), g.in_degree(x));
            prop_assert_eq!(r.in_degree(x), g.out_degree(x));
        }
    }

    /// Permuting node-indexed values and node lists into degree order and
    /// restoring them is the identity, and the permutation is a bijection.
    #[test]
    fn permutation_round_trips_values((g, _) in arb_graph()) {
        let perm = Permutation::compute(&g, NodeOrdering::DegreeDescending);
        let values: Vec<f64> = (0..g.node_count()).map(|i| i as f64 * 0.5).collect();
        let restored = perm.restore_values(&perm.permute_values(&values));
        prop_assert_eq!(restored, values);
        let nodes: Vec<NodeId> = (0..g.node_count() as u32).step_by(3).map(NodeId).collect();
        let round = perm.restore_nodes(&perm.permute_nodes(&nodes));
        prop_assert_eq!(round, nodes);
        for x in g.nodes() {
            prop_assert_eq!(perm.to_old(perm.to_new(x)), x);
        }
    }

    /// The degree-ordered graph lists out-degrees non-increasing by id,
    /// ties by total degree non-increasing.
    #[test]
    fn degree_order_sorts_out_degree_descending((g, _) in arb_graph()) {
        let pg = Permutation::compute(&g, NodeOrdering::DegreeDescending).permute_graph(&g);
        let key = |x: NodeId| (pg.out_degree(x), pg.out_degree(x) + pg.in_degree(x));
        for new in 1..pg.node_count() as u32 {
            prop_assert!(key(NodeId(new - 1)) >= key(NodeId(new)), "ids {} and {new}", new - 1);
        }
    }

    /// Renumbering maps every edge onto an edge and nothing else: the
    /// permuted graph is isomorphic to the original under the map.
    #[test]
    fn degree_permuted_graph_is_isomorphic((g, _) in arb_graph()) {
        let perm = Permutation::compute(&g, NodeOrdering::DegreeDescending);
        let pg = perm.permute_graph(&g);
        prop_assert_eq!(pg.edge_count(), g.edge_count());
        for x in g.nodes() {
            let mut mapped: Vec<NodeId> =
                g.out_neighbors(x).iter().map(|&y| perm.to_new(y)).collect();
            mapped.sort_unstable();
            prop_assert_eq!(pg.out_neighbors(perm.to_new(x)), &mapped[..]);
            prop_assert_eq!(pg.in_degree(perm.to_new(x)), g.in_degree(x));
        }
    }

    /// BFS distances satisfy the edge relaxation property.
    #[test]
    fn bfs_distances_are_consistent((g, _) in arb_graph()) {
        let dist = traversal::bfs_distances(&g, &[NodeId(0)], traversal::Direction::Forward);
        prop_assert_eq!(dist[0], Some(0));
        for (f, t) in g.edges() {
            if let Some(df) = dist[f.index()] {
                let dt = dist[t.index()].expect("successor of reachable node is reachable");
                prop_assert!(dt <= df + 1, "edge ({f},{t}): {dt} > {df}+1");
            }
        }
    }

    /// Extracting the full node set reproduces the graph; extracts always
    /// map ids consistently.
    #[test]
    fn extract_full_set_is_identity((g, _) in arb_graph()) {
        let all: Vec<NodeId> = g.nodes().collect();
        let e = subgraph::extract(&g, &all);
        prop_assert_eq!(e.graph.node_count(), g.node_count());
        prop_assert_eq!(e.graph.edge_count(), g.edge_count());
        for x in g.nodes() {
            let ex = e.extract_of(x).unwrap();
            prop_assert_eq!(e.original_of(ex), x);
        }
    }

    /// A random extract contains exactly the induced internal edges.
    #[test]
    fn extract_keeps_only_internal_edges((g, _) in arb_graph(), mask in proptest::collection::vec(any::<bool>(), 30)) {
        let keep: Vec<NodeId> = g
            .nodes()
            .filter(|x| mask[x.index()])
            .collect();
        let e = subgraph::extract(&g, &keep);
        let expected = g
            .edges()
            .filter(|(f, t)| mask[f.index()] && mask[t.index()])
            .count();
        prop_assert_eq!(e.graph.edge_count(), expected);
    }
}
