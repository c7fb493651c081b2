//! Work partitioning for the engine's resident sweep.
//!
//! [`EdgePartition`] cuts the in-CSR edge array into `parts` **exactly
//! equal edge ranges**; a worker owns every row fully contained in its
//! range (its *interior*, written directly) plus up to two *partial
//! rows* whose edges straddle a cut. Partial sums land in per-worker
//! scratch slots and the control thread combines them in worker order —
//! at most `parts − 1` boundary rows per sweep. Unlike node cuts
//! weighted by in-degree, an edge cut cannot be skewed by hubs: a row
//! wider than a whole worker quota is simply shared by several workers.
//!
//! The partition is a pure function of `(graph, parts)`, so the
//! fixed-partition determinism guarantee of the engine reduces to
//! reusing one partition per solve.

use spammass_graph::Graph;
use std::ops::Range;

/// A piece of a destination row whose in-edges straddle an edge-range
/// cut: worker-local gathers over `edges` produce a partial sum the
/// merge phase combines with the row's other pieces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialRow {
    /// The destination node the piece belongs to.
    pub node: usize,
    /// The sub-range of the in-CSR edge array this piece covers.
    pub edges: Range<usize>,
}

/// One boundary row's merge recipe: the scratch slots holding its
/// partial sums, in worker (= edge) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeEntry {
    /// The boundary destination node.
    pub node: usize,
    /// `(worker, slot)` pairs in ascending worker order; `slot` is 0 for
    /// the worker's head piece, 1 for its tail piece (see
    /// [`EdgePartition::pieces`]).
    pub parts: Vec<(usize, usize)>,
}

/// A partition of the in-CSR edge array `0..m` into `parts` contiguous
/// equal ranges, with the induced row ownership: per worker an interior
/// node range (rows fully inside its edge range, written directly) and
/// up to two [`PartialRow`] pieces, plus the [`MergeEntry`] plan that
/// reassembles the boundary rows.
///
/// Invariants (pinned by unit and property tests):
///
/// * edge ranges are contiguous, disjoint and cover `0..m`, each of size
///   `⌊m/parts⌋` or `⌈m/parts⌉`;
/// * every node lands in exactly one worker's interior **or** exactly
///   one merge entry (never both, never neither);
/// * a merge entry's pieces tile its row's edge range exactly, in edge
///   order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgePartition {
    /// Edge-range boundaries: worker `w` owns edges `cuts[w]..cuts[w+1]`.
    cuts: Vec<usize>,
    /// Per-worker fully-owned destination rows.
    interiors: Vec<Range<usize>>,
    /// Per-worker partial pieces: `[head, tail]`. The head piece belongs
    /// to a row that began in an earlier worker's range; the tail piece
    /// to a row that begins here and spills into a later range. A worker
    /// buried inside one huge row has only a head piece.
    pieces: Vec<[Option<PartialRow>; 2]>,
    /// Boundary rows in ascending node order.
    merge: Vec<MergeEntry>,
}

impl EdgePartition {
    /// Cuts the graph's in-CSR edge array into `parts` equal ranges and
    /// derives row ownership. Pure in `(graph, parts)`.
    pub fn balanced(graph: &Graph, parts: usize) -> EdgePartition {
        let n = graph.node_count();
        let m = graph.edge_count();
        let parts = parts.max(1);
        let offsets = graph.in_offsets();
        let off = |y: usize| offsets[y] as usize;
        let cuts: Vec<usize> = (0..=parts).map(|w| m * w / parts).collect();
        let mut interiors = Vec::with_capacity(parts);
        let mut pieces: Vec<[Option<PartialRow>; 2]> = vec![[None, None]; parts];
        // (node, worker, slot) in construction order, which is ascending
        // by node and, within a node, by worker — see the cursor
        // argument below.
        let mut triples: Vec<(usize, usize, usize)> = Vec::new();
        // `node` is the first row not yet fully assigned; every edge
        // below the current worker's `lo` already belongs to an earlier
        // worker, so the cursor only moves forward.
        let mut node = 0usize;
        for w in 0..parts {
            let (lo, hi) = (cuts[w], cuts[w + 1]);
            if node < n && off(node) < lo {
                // Row `node` began in an earlier range: this worker owns
                // a head piece of it (empty when lo == hi).
                let row_end = off(node + 1);
                let piece_end = row_end.min(hi);
                if piece_end > lo {
                    pieces[w][0] = Some(PartialRow { node, edges: lo..piece_end });
                    triples.push((node, w, 0));
                }
                if row_end > hi {
                    // The row swallows this worker's whole range; the
                    // next worker continues it.
                    interiors.push(node..node);
                    continue;
                }
                node += 1;
            }
            let start = node;
            while node < n && off(node + 1) <= hi {
                node += 1;
            }
            interiors.push(start..node);
            if node < n && off(node) < hi {
                // Row `node` begins here and spills past `hi`.
                pieces[w][1] = Some(PartialRow { node, edges: off(node)..hi });
                triples.push((node, w, 1));
            }
        }
        debug_assert_eq!(node, n, "row cursor must consume every node");
        let mut merge: Vec<MergeEntry> = Vec::new();
        for (node, w, slot) in triples {
            match merge.last_mut() {
                Some(e) if e.node == node => e.parts.push((w, slot)),
                _ => merge.push(MergeEntry { node, parts: vec![(w, slot)] }),
            }
        }
        EdgePartition { cuts, interiors, pieces, merge }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.cuts.len() - 1
    }

    /// Whether the partition has no workers (never true for constructed
    /// partitions; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Worker `w`'s edge range.
    #[inline]
    pub fn edge_range(&self, w: usize) -> Range<usize> {
        self.cuts[w]..self.cuts[w + 1]
    }

    /// Worker `w`'s fully-owned destination rows.
    #[inline]
    pub fn interior(&self, w: usize) -> Range<usize> {
        self.interiors[w].clone()
    }

    /// Worker `w`'s partial pieces, `[head, tail]`.
    #[inline]
    pub fn pieces(&self, w: usize) -> &[Option<PartialRow>; 2] {
        &self.pieces[w]
    }

    /// The merge plan: boundary rows in ascending node order.
    #[inline]
    pub fn merge_entries(&self) -> &[MergeEntry] {
        &self.merge
    }

    /// Edges per worker (diagnostic; equal to within one by
    /// construction).
    pub fn chunk_edges(&self) -> Vec<usize> {
        self.cuts.windows(2).map(|c| c[1] - c[0]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spammass_graph::{Graph, GraphBuilder};

    /// A star graph: every node 1..n points at node 0, so node 0 holds
    /// all in-edges.
    fn star(n: u32) -> Graph {
        let edges: Vec<(u32, u32)> = (1..n).map(|x| (x, 0)).collect();
        GraphBuilder::from_edges(n as usize, &edges)
    }

    /// Full structural audit of an [`EdgePartition`]: edge ranges tile
    /// `0..m`, every node is owned exactly once (interior xor merge),
    /// and each merge entry's pieces tile its row in edge order.
    fn assert_edge_partition_sound(p: &EdgePartition, g: &Graph) {
        let n = g.node_count();
        let m = g.edge_count();
        let offs = g.in_offsets();
        let mut next_edge = 0usize;
        for w in 0..p.len() {
            let r = p.edge_range(w);
            assert_eq!(r.start, next_edge, "edge ranges must be contiguous");
            next_edge = r.end;
        }
        assert_eq!(next_edge, m, "edge ranges must cover 0..m");
        let mut owner = vec![0u32; n];
        for w in 0..p.len() {
            for y in p.interior(w) {
                owner[y] += 1;
                // An interior row's edges sit inside the worker's range.
                let r = p.edge_range(w);
                assert!(offs[y] as usize >= r.start && offs[y + 1] as usize <= r.end);
            }
        }
        for e in p.merge_entries() {
            owner[e.node] += 1;
            assert!(e.parts.len() >= 2, "boundary row {} has {} piece(s)", e.node, e.parts.len());
            let mut cursor = offs[e.node] as usize;
            let mut last_worker = None;
            for &(w, slot) in &e.parts {
                assert!(last_worker.is_none_or(|lw| w > lw), "pieces in worker order");
                last_worker = Some(w);
                let piece = p.pieces(w)[slot].as_ref().expect("piece slot populated");
                assert_eq!(piece.node, e.node);
                assert_eq!(piece.edges.start, cursor, "pieces must tile the row");
                cursor = piece.edges.end;
            }
            assert_eq!(cursor, offs[e.node + 1] as usize, "pieces must end the row");
        }
        for (y, &count) in owner.iter().enumerate() {
            assert_eq!(count, 1, "node {y} owned {count} times");
        }
    }

    #[test]
    fn edge_partition_is_sound_on_varied_shapes() {
        for (graph, parts) in [
            (star(50), 4),
            (star(1), 3),
            (star(3), 8),
            (GraphBuilder::from_edges(0, &[]), 2),
            (GraphBuilder::from_edges(10, &[(0, 1), (1, 2), (9, 0)]), 16),
            (GraphBuilder::from_edges(6, &[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]), 2),
        ] {
            let p = EdgePartition::balanced(&graph, parts);
            assert_eq!(p.len(), parts);
            assert_edge_partition_sound(&p, &graph);
        }
    }

    #[test]
    fn edge_partition_shares_a_hub_row_across_workers() {
        // The star's hub holds all 999 in-edges; node cuts would give one
        // worker the whole row, the edge cut splits it across all four.
        let g = star(1000);
        let p = EdgePartition::balanced(&g, 4);
        assert_edge_partition_sound(&p, &g);
        let edges = p.chunk_edges();
        let (min, max) = (edges.iter().min().unwrap(), edges.iter().max().unwrap());
        assert!(max - min <= 1, "edge ranges must be equal to within one: {edges:?}");
        assert_eq!(p.merge_entries().len(), 1, "only the hub row straddles cuts");
        assert_eq!(p.merge_entries()[0].node, 0);
        assert_eq!(p.merge_entries()[0].parts.len(), 4, "all four workers contribute");
    }

    #[test]
    fn edge_partition_single_worker_has_no_boundaries() {
        let g = star(100);
        let p = EdgePartition::balanced(&g, 1);
        assert_edge_partition_sound(&p, &g);
        assert_eq!(p.interior(0), 0..100);
        assert!(p.merge_entries().is_empty());
        assert_eq!(p.pieces(0), &[None, None]);
    }

    #[test]
    fn edge_partition_is_deterministic() {
        let g = star(256);
        assert_eq!(EdgePartition::balanced(&g, 5), EdgePartition::balanced(&g, 5));
    }
}
