//! Property-based invariants of the graph substrate.

use proptest::prelude::*;
use spammass_graph::{io, Graph, GraphBuilder, NodeId, NodeOrdering, Permutation};
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

    /// The reversed graph is the transpose: every edge `f → t` becomes
    /// `t → f` and nothing else, and its in-lists are the original's
    /// out-lists.
    #[test]
    fn reversed_is_the_transpose((g, _) in arb_graph()) {
        let r = g.reversed();
        prop_assert_eq!(r.node_count(), g.node_count());
        prop_assert_eq!(r.edge_count(), g.edge_count());
        let mut flipped: Vec<(u32, u32)> = g.edges().map(|(f, t)| (t.0, f.0)).collect();
        flipped.sort_unstable();
        let got: Vec<(u32, u32)> = r.edges().map(|(f, t)| (f.0, t.0)).collect();
        prop_assert_eq!(&got, &flipped);
        for x in g.nodes() {
            prop_assert_eq!(r.in_neighbors(x), g.out_neighbors(x));
            prop_assert_eq!(r.out_neighbors(x), g.in_neighbors(x));
        }
    }

    /// Filtering keeps every node id and exactly the edges the predicate
    /// keeps — here those inside a random node set — in both
    /// orientations.
    #[test]
    fn filter_edges_keeps_exactly_the_kept_edges(
        (g, _) in arb_graph(),
        mask in proptest::collection::vec(any::<bool>(), 30),
    ) {
        let inside = |f: NodeId, t: NodeId| mask[f.index()] && mask[t.index()];
        let kept = g.filter_edges(inside);
        prop_assert_eq!(kept.node_count(), g.node_count());
        let expected: Vec<(NodeId, NodeId)> = g.edges().filter(|&(f, t)| inside(f, t)).collect();
        prop_assert_eq!(kept.edges().collect::<Vec<_>>(), expected.clone());
        let mut transposed: Vec<(NodeId, NodeId)> = Vec::new();
        for y in kept.nodes() {
            transposed.extend(kept.in_neighbors(y).iter().map(|&x| (x, y)));
        }
        transposed.sort_unstable();
        prop_assert_eq!(transposed, expected);
    }

    /// Keeping every edge rebuilds the same graph.
    #[test]
    fn filter_edges_keeping_every_edge_is_identity((g, _) in arb_graph()) {
        let same = g.filter_edges(|_, _| true);
        prop_assert_eq!(same.node_count(), g.node_count());
        prop_assert_eq!(same.edge_count(), g.edge_count());
        for x in g.nodes() {
            prop_assert_eq!(same.out_neighbors(x), g.out_neighbors(x));
            prop_assert_eq!(same.in_neighbors(x), g.in_neighbors(x));
        }
    }

    /// Filtering and reversing commute, with the predicate's arguments
    /// swapped: dropping `f → t` before reversing drops `t → f` after.
    #[test]
    fn filter_edges_commutes_with_reversal(
        (g, _) in arb_graph(),
        mask in proptest::collection::vec(any::<bool>(), 30),
    ) {
        let keep = |f: NodeId, t: NodeId| mask[f.index()] || t.index().is_multiple_of(3);
        let before = g.filter_edges(keep).reversed();
        let after = g.reversed().filter_edges(|t, f| keep(f, t));
        prop_assert_eq!(before.edges().collect::<Vec<_>>(), after.edges().collect::<Vec<_>>());
        for x in g.nodes() {
            prop_assert_eq!(before.in_neighbors(x), after.in_neighbors(x));
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
}
