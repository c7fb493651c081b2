//! The CSR construction against a test-local oracle.
//!
//! Every constructor — `GraphBuilder::from_edges`, `GraphBuilder::build`,
//! `Graph::from_sorted_unique_edges` and its checked twin — lays out both
//! orientations with one counting-sort routine. The oracle here does it
//! the obvious way instead: sort the pairs, drop repeats and self-loops,
//! and read each orientation's lists off the sorted list. Seeded random
//! edge lists cover duplicates, self-loops, shuffled order, a node range
//! wider than the largest id, and the empty graph; every constructor must
//! produce exactly the oracle's four arrays.

use spammass_graph::{Graph, GraphBuilder, GraphError, NodeId};

/// The four CSR arrays of a graph, plus its node count.
#[derive(Debug, PartialEq, Eq)]
struct Csr {
    nodes: usize,
    out_offsets: Vec<u32>,
    out_targets: Vec<u32>,
    in_offsets: Vec<u32>,
    in_sources: Vec<u32>,
}

fn csr_of(g: &Graph) -> Csr {
    let ids = |list: &[NodeId]| list.iter().map(|x| x.0).collect::<Vec<_>>();
    Csr {
        nodes: g.node_count(),
        out_offsets: g.out_offsets().to_vec(),
        out_targets: ids(g.out_targets()),
        in_offsets: g.in_offsets().to_vec(),
        in_sources: ids(g.in_sources()),
    }
}

/// Sorted, repeat-free, self-loop-free `(from, to)` pairs.
fn canonical(edges: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut sorted: Vec<_> = edges.iter().copied().filter(|&(f, t)| f != t).collect();
    sorted.sort_unstable();
    sorted.dedup();
    sorted
}

/// One orientation read off `pairs` sorted by `(list, entry)`.
fn lists(nodes: usize, pairs: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; nodes + 1];
    for &(r, _) in pairs {
        offsets[r as usize + 1] += 1;
    }
    for i in 0..nodes {
        offsets[i + 1] += offsets[i];
    }
    (offsets, pairs.iter().map(|&(_, v)| v).collect())
}

fn oracle(nodes: usize, edges: &[(u32, u32)]) -> Csr {
    let out = canonical(edges);
    let mut inn: Vec<(u32, u32)> = out.iter().map(|&(f, t)| (t, f)).collect();
    inn.sort_unstable();
    let (out_offsets, out_targets) = lists(nodes, &out);
    let (in_offsets, in_sources) = lists(nodes, &inn);
    Csr { nodes, out_offsets, out_targets, in_offsets, in_sources }
}

/// `count` seeded edges over `nodes` ids: repeats and self-loops arrive
/// naturally when `nodes` is small, and the order is random.
fn random_edges(nodes: u32, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut edges: Vec<(u32, u32)> = (0..count)
        .map(|_| {
            let r = next();
            ((r >> 32) as u32 % nodes, r as u32 % nodes)
        })
        .collect();
    // Every third edge again, and a self-loop every so often, both
    // placed at random positions.
    for i in (0..count).step_by(3) {
        edges.push(edges[i]);
    }
    for i in 0..count / 17 {
        edges.push((i as u32 % nodes, i as u32 % nodes));
    }
    for i in (1..edges.len()).rev() {
        edges.swap(i, next() as usize % (i + 1));
    }
    edges
}

fn check_every_constructor(min_nodes: usize, edges: &[(u32, u32)], label: &str) {
    let max_node = edges.iter().map(|&(f, t)| f.max(t) as usize + 1).max().unwrap_or(0);
    let nodes = min_nodes.max(max_node);
    let want = oracle(nodes, edges);

    assert_eq!(csr_of(&GraphBuilder::from_edges(min_nodes, edges)), want, "{label}: from_edges");

    let mut b = GraphBuilder::new(nodes);
    b.extend_edges(edges.iter().map(|&(f, t)| (NodeId(f), NodeId(t))));
    assert_eq!(csr_of(&b.build()), want, "{label}: build");

    let sorted = canonical(edges);
    assert_eq!(
        csr_of(&Graph::from_sorted_unique_edges(nodes, &sorted)),
        want,
        "{label}: from_sorted_unique_edges"
    );
    let checked = Graph::try_from_sorted_unique_edges(nodes, &sorted)
        .unwrap_or_else(|e| panic!("{label}: try_from_sorted_unique_edges: {e}"));
    assert_eq!(csr_of(&checked), want, "{label}: try_from_sorted_unique_edges");
    assert_eq!(checked.edge_count(), sorted.len(), "{label}");
}

#[test]
fn every_constructor_matches_the_oracle_on_random_edge_lists() {
    for (seed, nodes, count) in [
        (1u64, 2u32, 10usize),
        (2, 5, 200),
        (3, 50, 20_000),
        (4, 1_000, 5_000),
        (5, 20_000, 60_000),
        (6, 1, 8),
    ] {
        let edges = random_edges(nodes, count, seed);
        let label = format!("seed {seed}, {nodes} nodes, {} edges", edges.len());
        check_every_constructor(0, &edges, &label);
        // A node range past the largest id: trailing isolated nodes.
        check_every_constructor(nodes as usize + 7, &edges, &format!("{label}, padded"));
    }
}

#[test]
fn a_hub_with_shuffled_in_edges_gets_sorted_lists() {
    // One list far longer than the rest, arriving in random order in both
    // orientations.
    let mut edges: Vec<(u32, u32)> = (1..5_000u32).map(|x| (x, 0)).collect();
    edges.extend((1..5_000u32).map(|x| (0, x)));
    edges.extend(random_edges(5_000, 10_000, 9));
    let mut state = 11u64;
    for i in (1..edges.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        edges.swap(i, (state >> 33) as usize % (i + 1));
    }
    check_every_constructor(0, &edges, "hub");
}

#[test]
fn empty_and_edgeless_graphs_match_the_oracle() {
    check_every_constructor(0, &[], "empty");
    check_every_constructor(7, &[], "seven isolated nodes");
    check_every_constructor(3, &[(1, 1), (2, 2)], "self-loops only");
}

#[test]
fn checked_constructor_keeps_its_typed_errors() {
    assert!(matches!(
        Graph::try_from_sorted_unique_edges(3, &[(0, 1), (1, 2), (2, 3)]),
        Err(GraphError::NodeOutOfRange { node: 3, node_count: 3 })
    ));
    assert!(matches!(
        Graph::try_from_sorted_unique_edges(4, &[(0, 2), (0, 1)]),
        Err(GraphError::Corrupt(_))
    ));
    assert!(matches!(
        Graph::try_from_sorted_unique_edges(4, &[(0, 1), (1, 2), (1, 2)]),
        Err(GraphError::Corrupt(_))
    ));
    assert!(matches!(
        Graph::try_from_sorted_unique_edges(4, &[(0, 1), (2, 2), (2, 3)]),
        Err(GraphError::SelfLoop { node: 2 })
    ));
    // Range is checked before order: an unsorted list with an
    // out-of-range id reports the range.
    assert!(matches!(
        Graph::try_from_sorted_unique_edges(2, &[(1, 0), (0, 9)]),
        Err(GraphError::NodeOutOfRange { node: 9, node_count: 2 })
    ));
}

#[test]
#[should_panic(expected = "out of range")]
fn unchecked_constructor_panics_on_an_out_of_range_target() {
    // Both orientation passes see the bad id; whichever thread stops
    // first, the panic that reaches the caller names the range.
    let _ = Graph::from_sorted_unique_edges(3, &[(0, 1), (1, 7)]);
}
