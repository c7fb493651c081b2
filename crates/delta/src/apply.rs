//! Applying a delta to a loaded [`Graph`].
//!
//! The CSR graph is immutable, so "mutating" it means building its
//! replacement. [`Graph::patched`] does that row by row, at the cost of
//! what changed: runs of rows the delta does not touch are copied in
//! bulk, each row it touches is merged with its sorted adds and removes,
//! and the out-rows and the in-rows (from the transposed delta) are
//! patched on two threads. No edge list is materialized and nothing is
//! counted or sorted again; the result is the CSR a from-scratch build of
//! the patched edge set gives.
//!
//! The dangling set is read off the patched out-offsets, so it is the
//! one every CSR build agrees on (the paper's Section 2.2 treatment of
//! leaked mass depends on this set being exact).

use crate::record::DeltaRecord;
use spammass_graph::{Graph, NodeId, Permutation};
use spammass_obs as obs;
use std::collections::BTreeSet;

/// A normalized, order-resolved set of graph and core mutations.
///
/// Built from an ordered record stream ([`GraphDelta::from_records`]):
/// later records win, so `AddEdge(e)` followed by `RemoveEdge(e)` nets
/// out to a removal of `e` (if present) and the add/remove sets are
/// disjoint by construction. Self-loop adds are dropped — the paper's
/// model disallows self-links — and removes of absent edges are no-ops.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Sorted, deduplicated, self-loop-free edges to insert.
    add_edges: Vec<(u32, u32)>,
    /// Sorted, deduplicated edges to delete; disjoint from `add_edges`.
    remove_edges: Vec<(u32, u32)>,
    /// Lower bound on the post-apply node count from `AddNode` records.
    min_nodes: usize,
    /// Sorted nodes joining the good core.
    core_add: Vec<NodeId>,
    /// Sorted nodes leaving the good core; disjoint from `core_add`.
    core_remove: Vec<NodeId>,
}

impl GraphDelta {
    /// Normalizes an ordered record stream (e.g. the concatenation of a
    /// journal's batches) into disjoint add/remove sets.
    pub fn from_records<'a, I>(records: I) -> Self
    where
        I: IntoIterator<Item = &'a DeltaRecord>,
    {
        let mut adds: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut removes: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut core_adds: BTreeSet<NodeId> = BTreeSet::new();
        let mut core_removes: BTreeSet<NodeId> = BTreeSet::new();
        let mut min_nodes = 0usize;
        for record in records {
            match *record {
                DeltaRecord::AddEdge { from, to } => {
                    if from != to {
                        let e = (from.0, to.0);
                        removes.remove(&e);
                        adds.insert(e);
                    }
                }
                DeltaRecord::RemoveEdge { from, to } => {
                    let e = (from.0, to.0);
                    adds.remove(&e);
                    removes.insert(e);
                }
                DeltaRecord::AddNode { node } => min_nodes = min_nodes.max(node.index() + 1),
                DeltaRecord::CoreAdd { node } => {
                    core_removes.remove(&node);
                    core_adds.insert(node);
                }
                DeltaRecord::CoreRemove { node } => {
                    core_adds.remove(&node);
                    core_removes.insert(node);
                }
            }
        }
        GraphDelta {
            add_edges: adds.into_iter().collect(),
            remove_edges: removes.into_iter().collect(),
            min_nodes,
            core_add: core_adds.into_iter().collect(),
            core_remove: core_removes.into_iter().collect(),
        }
    }

    /// Edges this delta inserts (sorted, deduplicated).
    pub fn edges_to_add(&self) -> &[(u32, u32)] {
        &self.add_edges
    }

    /// Edges this delta deletes (sorted, deduplicated).
    pub fn edges_to_remove(&self) -> &[(u32, u32)] {
        &self.remove_edges
    }

    /// Net edge operations (adds + removes) in the normalized delta.
    pub fn op_count(&self) -> usize {
        self.add_edges.len() + self.remove_edges.len()
    }

    /// Whether the delta changes neither the graph nor the core.
    pub fn is_empty(&self) -> bool {
        self.op_count() == 0
            && self.min_nodes == 0
            && self.core_add.is_empty()
            && self.core_remove.is_empty()
    }

    /// Translates the delta into the id space of a permuted graph.
    ///
    /// `spammass update` applies a journal as written, so a journal for a
    /// renumbered image must name the image's ids. A delta written against
    /// the original ids is carried over by this map: applying `self` to
    /// `G` and then permuting gives the same graph as permuting `G`
    /// ([`Permutation::permute_graph`]) and applying
    /// `self.remapped(perm)`. Ids at or beyond the permutation's length
    /// (nodes this delta appends) pass through unchanged, matching
    /// [`Permutation::to_new`].
    pub fn remapped(&self, perm: &Permutation) -> GraphDelta {
        let map_edge = |&(f, t): &(u32, u32)| (perm.to_new(NodeId(f)).0, perm.to_new(NodeId(t)).0);
        let mut add_edges: Vec<(u32, u32)> = self.add_edges.iter().map(map_edge).collect();
        let mut remove_edges: Vec<(u32, u32)> = self.remove_edges.iter().map(map_edge).collect();
        add_edges.sort_unstable();
        remove_edges.sort_unstable();
        GraphDelta {
            add_edges,
            remove_edges,
            min_nodes: self.min_nodes,
            core_add: perm.permute_nodes(&self.core_add),
            core_remove: perm.permute_nodes(&self.core_remove),
        }
    }

    /// Node count the patched graph must have: the old count, grown to
    /// cover `AddNode` records and every endpoint of an added edge.
    pub fn node_count_after(&self, graph: &Graph) -> usize {
        let mut n = graph.node_count().max(self.min_nodes);
        for &(f, t) in &self.add_edges {
            n = n.max(f.max(t) as usize + 1);
        }
        n
    }

    /// Applies the delta, replacing `*graph` with the patched CSR image.
    ///
    /// Removes of absent edges and adds of already-present edges are
    /// no-ops; the report counts only operations that took effect. Node
    /// ids never shrink: removing a node's last edge leaves it as an
    /// isolated (dangling) host, which still receives the random jump.
    pub fn apply(&self, graph: &mut Graph) -> ApplyReport {
        let mut span = obs::span("delta.apply");
        let nodes_before = graph.node_count();
        let nodes_after = self.node_count_after(graph);
        let (patched, edges_added, edges_removed) =
            graph.patched(nodes_after, &self.add_edges, &self.remove_edges);

        // A node is newly dangling iff its patched out-degree is zero
        // while it previously had out-links or did not exist.
        // Removes may reference ids the graph never had (no-ops); clamp
        // the affected set to nodes that exist after the apply.
        let mut affected: Vec<NodeId> = self
            .add_edges
            .iter()
            .chain(self.remove_edges.iter())
            .flat_map(|&(f, t)| [NodeId(f), NodeId(t)])
            .chain((nodes_before..nodes_after).map(NodeId::from_index))
            .filter(|x| x.index() < nodes_after)
            .collect();
        affected.sort_unstable();
        affected.dedup();
        let new_dangling: Vec<NodeId> = affected
            .iter()
            .copied()
            .filter(|&x| {
                patched.is_dangling(x) && (x.index() >= nodes_before || !graph.is_dangling(x))
            })
            .collect();

        *graph = patched;

        span.record("ops", self.op_count() as f64);
        span.record("edges_added", edges_added as f64);
        span.record("edges_removed", edges_removed as f64);
        span.record("affected", affected.len() as f64);
        ApplyReport {
            nodes_before,
            nodes_after,
            edges_added,
            edges_removed,
            affected,
            new_dangling,
        }
    }

    /// Applies the core membership changes to a sorted core node list.
    /// Returns `(added, removed)` counts of operations that took effect.
    pub fn apply_to_core(&self, core: &mut Vec<NodeId>) -> (usize, usize) {
        let mut set: BTreeSet<NodeId> = core.iter().copied().collect();
        let mut added = 0usize;
        let mut removed = 0usize;
        for &x in &self.core_add {
            if set.insert(x) {
                added += 1;
            }
        }
        for &x in &self.core_remove {
            if set.remove(&x) {
                removed += 1;
            }
        }
        *core = set.into_iter().collect();
        (added, removed)
    }
}

/// What [`GraphDelta::apply`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyReport {
    /// Node count before the apply.
    pub nodes_before: usize,
    /// Node count after the apply (never smaller).
    pub nodes_after: usize,
    /// Adds that took effect (the edge was not already present).
    pub edges_added: usize,
    /// Removes that took effect (the edge existed).
    pub edges_removed: usize,
    /// Endpoints of effective-or-not edge operations plus all new nodes,
    /// sorted and deduplicated — the support of the perturbation, useful
    /// for focused re-checking downstream.
    pub affected: Vec<NodeId>,
    /// Nodes that are dangling after the apply but were not before
    /// (includes new nodes that arrived with no out-links).
    pub new_dangling: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{journal_to_bytes, read_journal};
    use proptest::prelude::*;
    use spammass_graph::GraphBuilder;

    fn add(f: u32, t: u32) -> DeltaRecord {
        DeltaRecord::AddEdge { from: NodeId(f), to: NodeId(t) }
    }

    fn remove(f: u32, t: u32) -> DeltaRecord {
        DeltaRecord::RemoveEdge { from: NodeId(f), to: NodeId(t) }
    }

    fn diamond() -> Graph {
        GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn normalization_is_order_resolved_and_disjoint() {
        let d = GraphDelta::from_records(&[
            add(0, 1),
            remove(0, 1), // later removal wins
            remove(2, 3),
            add(2, 3), // later add wins
            add(4, 4), // self-loop dropped
            DeltaRecord::CoreAdd { node: NodeId(7) },
            DeltaRecord::CoreRemove { node: NodeId(7) }, // later removal wins
        ]);
        assert_eq!(d.edges_to_add(), &[(2, 3)]);
        assert_eq!(d.edges_to_remove(), &[(0, 1)]);
        let mut core = vec![NodeId(7)];
        assert_eq!(d.apply_to_core(&mut core), (0, 1));
        assert!(core.is_empty());
        assert!(!d.is_empty());
        assert!(GraphDelta::from_records(&[]).is_empty());
    }

    #[test]
    fn apply_adds_removes_and_grows() {
        let mut g = diamond();
        let d = GraphDelta::from_records(&[
            remove(0, 2),
            add(3, 0),
            DeltaRecord::AddNode { node: NodeId(5) },
            add(5, 3),
            remove(1, 2), // absent: no-op
            add(0, 1),    // present: no-op
        ]);
        let report = d.apply(&mut g);
        assert_eq!(report.nodes_before, 4);
        assert_eq!(report.nodes_after, 6);
        assert_eq!(report.edges_added, 2);
        assert_eq!(report.edges_removed, 1);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 5);
        assert!(g.has_edge(NodeId(3), NodeId(0)));
        assert!(g.has_edge(NodeId(5), NodeId(3)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        // Node 4 arrived (via AddNode 5 growing the range) with no
        // out-links: dangling.
        assert!(g.is_dangling(NodeId(4)));
        assert!(report.new_dangling.contains(&NodeId(4)));
        assert!(report.affected.contains(&NodeId(2)));
    }

    #[test]
    fn removing_last_out_edge_reports_new_dangling() {
        let mut g = diamond();
        let d = GraphDelta::from_records(&[remove(1, 3)]);
        let report = d.apply(&mut g);
        assert!(g.is_dangling(NodeId(1)));
        assert_eq!(report.new_dangling, vec![NodeId(1)]);
        // Node 3 was already dangling: not *newly* dangling.
        assert!(!report.new_dangling.contains(&NodeId(3)));
        // The applier and filter_edges agree on the dangling set.
        let filtered = diamond().filter_edges(|f, t| (f, t) != (NodeId(1), NodeId(3)));
        let a: Vec<NodeId> = g.dangling_nodes().collect();
        let b: Vec<NodeId> = filtered.dangling_nodes().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn patch_and_rebuild_agree() {
        // A mid-sized pseudo-random graph and deltas straddling present,
        // absent, and out-of-range edges — one a fraction of the graph,
        // one several times its size: the row-wise patch must produce the
        // graph a from-scratch build of the final edge set produces, and
        // count exactly the operations that took effect.
        let n = 60u32;
        let mut state = 0xDEADBEEFu64;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut edges = Vec::new();
        for _ in 0..400 {
            let f = (step() % n as u64) as u32;
            let t = (step() % n as u64) as u32;
            if f != t {
                edges.push((f, t));
            }
        }
        let base = GraphBuilder::from_edges(n as usize, &edges);
        for ops in [120, 3 * base.edge_count()] {
            let mut records = Vec::new();
            for i in 0..ops {
                let f = (step() % (n as u64 + 8)) as u32;
                let t = (step() % (n as u64 + 8)) as u32;
                if f == t {
                    continue;
                }
                records.push(if i % 3 == 0 { remove(f, t) } else { add(f, t) });
            }
            let d = GraphDelta::from_records(&records);
            assert_eq!(d.op_count() > base.edge_count(), ops > 120, "one delta outgrows the graph");

            let mut expected: BTreeSet<(u32, u32)> =
                base.edges().map(|(f, t)| (f.0, t.0)).collect();
            let removed = d.edges_to_remove().iter().filter(|e| expected.remove(e)).count();
            let added = d.edges_to_add().iter().filter(|&&e| expected.insert(e)).count();
            let final_edges: Vec<(u32, u32)> = expected.into_iter().collect();
            let oracle = GraphBuilder::from_edges(d.node_count_after(&base), &final_edges);

            let mut patched = base.clone();
            let report = d.apply(&mut patched);
            assert_eq!((report.edges_added, report.edges_removed), (added, removed));
            assert_same_graph(&patched, &oracle);
        }
    }

    /// A base graph of up to 200 nodes and a record stream over it: `(op,
    /// a, b)` is an add (op 0) or remove (1) of `(a, b)` with ids up to 12
    /// past the graph, an add (2) or remove (3) of the base's edge number
    /// `b`, a self-loop add (4) or an `AddNode` (5).
    fn arb_base_and_records() -> impl Strategy<Value = (Graph, Vec<DeltaRecord>)> {
        (1usize..=200).prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..900);
            let ops =
                proptest::collection::vec((0..6u32, 0..n as u32 + 12, 0..n as u32 + 12), 0..160);
            (edges, ops).prop_map(move |(edges, ops)| {
                let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(f, t)| f != t).collect();
                let base = GraphBuilder::from_edges(n, &edges);
                let present: Vec<(NodeId, NodeId)> = base.edges().collect();
                let records = ops
                    .into_iter()
                    .map(|(op, a, b)| match op {
                        0 => add(a, b),
                        1 => remove(a, b),
                        2 | 3 if !present.is_empty() => {
                            let (f, t) = present[b as usize % present.len()];
                            if op == 2 {
                                add(f.0, t.0)
                            } else {
                                remove(f.0, t.0)
                            }
                        }
                        4 => add(a, a),
                        _ => DeltaRecord::AddNode { node: NodeId(a) },
                    })
                    .collect();
                (base, records)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The row-wise patch is the rebuild of the patched edge set, and
        /// its report is the one the pair-list computation gave: the edge
        /// set from a `BTreeSet`, out-degrees counted from its pairs.
        #[test]
        fn the_row_wise_patch_is_the_rebuild_of_the_patched_edge_set(
            (base, records) in arb_base_and_records(),
        ) {
            let d = GraphDelta::from_records(&records);
            let mut expected: BTreeSet<(u32, u32)> =
                base.edges().map(|(f, t)| (f.0, t.0)).collect();
            let removed = d.edges_to_remove().iter().filter(|e| expected.remove(e)).count();
            let added = d.edges_to_add().iter().filter(|&&e| expected.insert(e)).count();
            let nodes_before = base.node_count();
            let nodes_after = d.node_count_after(&base);
            let final_edges: Vec<(u32, u32)> = expected.into_iter().collect();
            let oracle = Graph::from_sorted_unique_edges(nodes_after, &final_edges);
            let mut degrees = vec![0usize; nodes_after];
            for &(f, _) in &final_edges {
                degrees[f as usize] += 1;
            }
            let mut affected: Vec<NodeId> = d
                .edges_to_add()
                .iter()
                .chain(d.edges_to_remove())
                .flat_map(|&(f, t)| [NodeId(f), NodeId(t)])
                .chain((nodes_before..nodes_after).map(NodeId::from_index))
                .filter(|x| x.index() < nodes_after)
                .collect();
            affected.sort_unstable();
            affected.dedup();
            let new_dangling: Vec<NodeId> = affected
                .iter()
                .copied()
                .filter(|&x| {
                    degrees[x.index()] == 0
                        && (x.index() >= nodes_before || !base.is_dangling(x))
                })
                .collect();

            let mut patched = base.clone();
            let report = d.apply(&mut patched);
            prop_assert_eq!(
                report,
                ApplyReport {
                    nodes_before,
                    nodes_after,
                    edges_added: added,
                    edges_removed: removed,
                    affected,
                    new_dangling,
                }
            );
            prop_assert_eq!(patched.node_count(), oracle.node_count());
            prop_assert_eq!(patched.edge_count(), oracle.edge_count());
            prop_assert_eq!(patched.out_offsets(), oracle.out_offsets());
            prop_assert_eq!(patched.out_targets(), oracle.out_targets());
            prop_assert_eq!(patched.in_offsets(), oracle.in_offsets());
            prop_assert_eq!(patched.in_sources(), oracle.in_sources());
        }
    }

    #[test]
    fn apply_to_core_is_a_sorted_set_update() {
        let d = GraphDelta::from_records(&[
            DeltaRecord::CoreAdd { node: NodeId(9) },
            DeltaRecord::CoreAdd { node: NodeId(1) },
            DeltaRecord::CoreRemove { node: NodeId(4) },
            DeltaRecord::CoreRemove { node: NodeId(8) }, // absent: no-op
        ]);
        let mut core = vec![NodeId(1), NodeId(4), NodeId(6)];
        let (added, removed) = d.apply_to_core(&mut core);
        assert_eq!(core, vec![NodeId(1), NodeId(6), NodeId(9)]);
        assert_eq!((added, removed), (1, 1)); // NodeId(1) was already in
    }

    #[test]
    fn journal_round_trip_reapplies_identically() {
        let records = vec![add(3, 1), remove(0, 2), DeltaRecord::AddNode { node: NodeId(6) }];
        let bytes = journal_to_bytes(std::slice::from_ref(&records));
        let back = read_journal(&bytes).unwrap();
        let direct = GraphDelta::from_records(&records);
        let via_journal = GraphDelta::from_records(back.iter().flatten());
        assert_eq!(direct, via_journal);
        let mut a = diamond();
        let mut b = diamond();
        let ra = direct.apply(&mut a);
        let rb = via_journal.apply(&mut b);
        assert_eq!(ra, rb);
        assert_eq!(a.edge_count(), b.edge_count());
    }

    fn assert_same_graph(a: &Graph, b: &Graph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.out_offsets(), b.out_offsets());
        assert_eq!(a.out_targets(), b.out_targets());
        assert_eq!(a.in_offsets(), b.in_offsets());
        assert_eq!(a.in_sources(), b.in_sources());
    }

    #[test]
    fn remapped_apply_commutes_with_permutation() {
        let g = GraphBuilder::from_edges(
            8,
            &[(0, 1), (0, 2), (0, 3), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0)],
        );
        let d = GraphDelta::from_records(&[
            add(5, 1),
            add(2, 7),
            remove(0, 2),
            remove(3, 4),
            DeltaRecord::CoreAdd { node: NodeId(4) },
            DeltaRecord::CoreRemove { node: NodeId(1) },
        ]);
        let perm = Permutation::compute(&g, spammass_graph::NodeOrdering::DegreeDescending);
        // Path A: apply in original ids, then permute the result.
        let mut patched = g.clone();
        d.apply(&mut patched);
        let a = perm.permute_graph(&patched);
        // Path B: permute first, then apply the remapped delta.
        let mut b = perm.permute_graph(&g);
        d.remapped(&perm).apply(&mut b);
        assert_same_graph(&a, &b);
        // Core edits translate the same way.
        let mut core_then_permute = vec![NodeId(1), NodeId(2)];
        d.apply_to_core(&mut core_then_permute);
        let core_then_permute = perm.permute_nodes(&core_then_permute);
        let mut permute_then_apply = perm.permute_nodes(&[NodeId(1), NodeId(2)]);
        d.remapped(&perm).apply_to_core(&mut permute_then_apply);
        assert_eq!(core_then_permute, permute_then_apply);
    }

    #[test]
    fn remapped_passes_appended_nodes_through() {
        let g = diamond();
        let perm = Permutation::compute(&g, spammass_graph::NodeOrdering::DegreeDescending);
        // Edge endpoints beyond the permutation's range (nodes the delta
        // itself appends) keep their natural ids.
        let d = GraphDelta::from_records(&[add(0, 6), DeltaRecord::AddNode { node: NodeId(9) }]);
        let r = d.remapped(&perm);
        assert_eq!(r.edges_to_add(), &[(perm.to_new(NodeId(0)).0, 6)]);
        let mut patched = perm.permute_graph(&g);
        r.apply(&mut patched);
        assert_eq!(patched.node_count(), 10);
    }
}
