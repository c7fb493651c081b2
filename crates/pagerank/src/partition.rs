//! Work partitioning for the engine's resident sweep.
//!
//! [`EdgePartition`] cuts the in-CSR edge array into `parts` contiguous
//! ranges of **equal gather cost**. Only the in-edges of rows whose node
//! has out-links cost anything — the only ones a sweep reads (see
//! [`crate::engine`]: a row without out-links is relaxed once, after the
//! last sweep, and a row without in-edges has none to gather). Such an
//! edge costs one unit for reading its source, plus one more when the
//! source opens a new cache line of the contribution buffer: when it is
//! the row's first, or does not share a group of [`GROUP_IDS`] ids with
//! the source before it (a row's sources ascend). Edge counts alone
//! leave a worker whose rows gather from all over the graph up to 1.8×
//! slower than one whose rows gather from runs of neighbouring ids — a
//! spam farm's target reading its boosters — and which of the two a
//! worker gets depends on the graph; the line term evens that out.
//!
//! A worker owns every row fully contained in its range (its
//! *interior*, written directly) plus up to two *partial rows* whose
//! edges straddle a cut. Partial sums land in per-worker scratch slots
//! and the control thread combines them in worker order — at most
//! `parts − 1` boundary rows per sweep. Unlike node cuts weighted by
//! in-degree, an edge cut cannot be skewed by hubs: a row wider than a
//! whole worker quota is simply shared by several workers.
//!
//! A cut sits right after a gathered edge, so it never falls strictly
//! inside the edges of a row without out-links: every boundary row has
//! out-links.
//!
//! Weighing reads every in-source once, on two threads: the rows are
//! split at half the edges between the calling thread and one scoped
//! thread, each keeping the cost and gathered edges of every block of
//! [`WEIGH_ROWS`] rows. The cut search then steps over whole blocks and
//! weighs row by row only inside the block where a cut falls, so it puts
//! every cut where a serial walk over the running cost would.
//!
//! The partition is a pure function of `(graph, parts)`, so the
//! fixed-partition determinism guarantee of the engine reduces to
//! reusing one partition per solve.

use spammass_graph::{Graph, NodeId};
use std::ops::Range;

/// Ids whose contributions share one 64-byte line in the gather-cost
/// model: a two-column solve — `[p, p′]`, the estimator's pair — stores
/// 16 bytes a node.
pub const GROUP_IDS: u32 = 4;

/// Rows per block of the weighing pass: the cut search steps over a
/// whole block whose cost keeps it below the next target and weighs row
/// by row only inside the block where a cut falls.
const WEIGH_ROWS: usize = 1024;

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
/// ranges of equal gather cost, with the induced row ownership: per
/// worker an interior node range (rows fully inside its edge range,
/// written directly) and up to two [`PartialRow`] pieces, plus the
/// [`MergeEntry`] plan that reassembles the boundary rows.
///
/// Invariants (pinned by unit and property tests):
///
/// * edge ranges are contiguous, disjoint and cover `0..m`; of the total
///   gather cost `t`, ranges `0..=w` hold between `⌊t·(w+1)/parts⌋` and
///   one unit more, and range `w` ends right after a gathered edge (the
///   last range ends at `m`);
/// * every node lands in exactly one worker's interior **or** exactly
///   one merge entry (never both, never neither);
/// * a merge entry's pieces tile its row's edge range exactly, in edge
///   order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgePartition {
    /// Edge-range boundaries: worker `w` owns edges `cuts[w]..cuts[w+1]`.
    cuts: Vec<usize>,
    /// Gathered edges per worker.
    gathered: Vec<usize>,
    /// Gather cost per worker.
    costs: Vec<usize>,
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
    /// Cuts the graph's in-CSR edge array into `parts` ranges of equal
    /// gather cost and derives row ownership. Pure in `(graph, parts)`.
    pub fn balanced(graph: &Graph, parts: usize) -> EdgePartition {
        let n = graph.node_count();
        let m = graph.edge_count();
        let parts = parts.max(1);
        let offsets = graph.in_offsets();
        let srcs = graph.in_sources();
        let off = |y: usize| offsets[y] as usize;
        let gathers = |y: usize| graph.out_degree(NodeId(y as u32)) > 0;
        let opens = |a: NodeId, b: NodeId| a.0 / GROUP_IDS != b.0 / GROUP_IDS;
        // Edge `e` of a row `y` that gathers.
        let edge_cost =
            |y: usize, e: usize| 1 + usize::from(e == off(y) || opens(srcs[e - 1], srcs[e]));
        let row_cost = |y: usize| -> usize {
            let row = &srcs[off(y)..off(y + 1)];
            if row.is_empty() || !gathers(y) {
                return 0;
            }
            2 * row.len() - row.windows(2).filter(|w| !opens(w[0], w[1])).count()
        };
        // Gathered edges of a row that costs `cost`.
        let row_gathered = |y: usize, cost: usize| if cost > 0 { off(y + 1) - off(y) } else { 0 };
        // The weighing pass: the cost and gathered edges of every block of
        // `WEIGH_ROWS` rows, the blocks split at half the edges between
        // this thread and one scoped thread.
        let weigh = |blocks: Range<usize>| -> Vec<(usize, usize)> {
            blocks
                .map(|b| {
                    let rows = b * WEIGH_ROWS..((b + 1) * WEIGH_ROWS).min(n);
                    rows.fold((0, 0), |(cost, gathered), y| {
                        let c = row_cost(y);
                        (cost + c, gathered + row_gathered(y, c))
                    })
                })
                .collect()
        };
        let block_count = n.div_ceil(WEIGH_ROWS);
        let half = offsets[..n].partition_point(|&o| (o as usize) < m / 2) / WEIGH_ROWS;
        let blocks: Vec<(usize, usize)> = std::thread::scope(|scope| {
            let upper = scope.spawn(|| weigh(half..block_count));
            let mut blocks = weigh(0..half);
            blocks.extend(upper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
            blocks
        });
        let total: usize = blocks.iter().map(|b| b.0).sum();
        let total_gathered: usize = blocks.iter().map(|b| b.1).sum();
        let targets: Vec<usize> = (0..=parts).map(|w| total * w / parts).collect();
        // Cut `w` sits right after the edge at which the running cost
        // first reaches `targets[w]` — inside or at the end of a row that
        // gathers — or at the start of row `y` when the rows below it
        // already hold exactly that much. `y`, `before` (the cost of the
        // rows below `y`) and `below` (their gathered edges) only move
        // forward, a whole block at a time while the block stays below
        // the target. `cost_at` and `gathered_at` are the running cost
        // and gathered edges at each cut.
        let mut cuts = Vec::with_capacity(parts + 1);
        let mut cost_at = Vec::with_capacity(parts + 1);
        let mut gathered_at = Vec::with_capacity(parts + 1);
        cuts.push(0);
        cost_at.push(0);
        gathered_at.push(0);
        let (mut y, mut before, mut below) = (0usize, 0usize, 0usize);
        for &target in &targets[1..parts] {
            while y < n {
                if y % WEIGH_ROWS == 0 {
                    let (cost, gathered) = blocks[y / WEIGH_ROWS];
                    if before + cost < target {
                        before += cost;
                        below += gathered;
                        y = (y + WEIGH_ROWS).min(n);
                        continue;
                    }
                }
                let cost = row_cost(y);
                if before + cost >= target {
                    break;
                }
                before += cost;
                below += row_gathered(y, cost);
                y += 1;
            }
            let (mut e, mut cost) = (off(y), before);
            while cost < target {
                cost += edge_cost(y, e);
                e += 1;
            }
            cuts.push(e);
            cost_at.push(cost);
            gathered_at.push(below + (e - off(y)));
        }
        cuts.push(m);
        cost_at.push(total);
        gathered_at.push(total_gathered);
        let gathered: Vec<usize> = gathered_at.windows(2).map(|g| g[1] - g[0]).collect();
        let costs: Vec<usize> = cost_at.windows(2).map(|c| c[1] - c[0]).collect();
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
            if node < n {
                // The rows whose edges all end by `hi`: a prefix, since
                // the offsets ascend.
                node += offsets[node + 1..].partition_point(|&o| o as usize <= hi);
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
        EdgePartition { cuts, gathered, costs, interiors, pieces, merge }
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

    /// Gathered edges per worker — the in-edges a sweep reads there
    /// (diagnostic).
    pub fn chunk_edges(&self) -> Vec<usize> {
        self.gathered.clone()
    }

    /// Gather cost per worker — what the cuts balance (diagnostic; by
    /// construction within one unit of the worker's share
    /// `⌊t·(w+1)/parts⌋ − ⌊t·w/parts⌋` of the total cost `t`).
    pub fn chunk_costs(&self) -> Vec<usize> {
        self.costs.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spammass_graph::{Graph, GraphBuilder};

    /// A star graph: every node 1..n points at node 0, so node 0 holds
    /// all in-edges but one; node 0 links back to node 1, so every one
    /// of them is gathered.
    fn star(n: u32) -> Graph {
        let mut edges: Vec<(u32, u32)> = (1..n).map(|x| (x, 0)).collect();
        if n > 1 {
            edges.push((0, 1));
        }
        GraphBuilder::from_edges(n as usize, &edges)
    }

    /// The gather cost of every in-CSR edge position, worked out edge by
    /// edge: 0 into a row without out-links, else 1, plus 1 when the
    /// source is the row's first or leaves the previous source's group.
    fn edge_costs(g: &Graph) -> Vec<usize> {
        let mut costs = Vec::with_capacity(g.edge_count());
        for y in g.nodes() {
            let mut prev: Option<u32> = None;
            for x in g.in_neighbors(y) {
                let opens = prev.is_none_or(|p| p / GROUP_IDS != x.0 / GROUP_IDS);
                costs.push(if g.out_degree(y) == 0 { 0 } else { 1 + usize::from(opens) });
                prev = Some(x.0);
            }
        }
        costs
    }

    /// Full structural audit of an [`EdgePartition`]: edge ranges tile
    /// `0..m`, each holding its share of the gather cost to within one
    /// unit, with its gathered edges and cost reported; every node is
    /// owned exactly once (interior xor merge), and each merge entry's
    /// pieces tile the row of a node with out-links in edge order.
    fn assert_edge_partition_sound(p: &EdgePartition, g: &Graph) {
        let n = g.node_count();
        let m = g.edge_count();
        let offs = g.in_offsets();
        let costs = edge_costs(g);
        let total: usize = costs.iter().sum();
        let mut next_edge = 0usize;
        for w in 0..p.len() {
            let r = p.edge_range(w);
            assert_eq!(r.start, next_edge, "edge ranges must be contiguous");
            next_edge = r.end;
            let cost: usize = costs[r.clone()].iter().sum();
            let share = total * (w + 1) / p.len() - total * w / p.len();
            assert!(cost.abs_diff(share) <= 1, "worker {w} costs {cost}, its share is {share}");
            assert_eq!(p.chunk_costs()[w], cost);
            assert_eq!(p.chunk_edges()[w], costs[r].iter().filter(|&&c| c > 0).count());
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
            assert!(g.out_degree(NodeId(e.node as u32)) > 0, "boundary row {} is terminal", e.node);
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
        // The star's hub holds 999 of the 1000 in-edges; node cuts would
        // give one worker the whole row, the edge cut splits it across
        // all four.
        let g = star(1000);
        let p = EdgePartition::balanced(&g, 4);
        assert_edge_partition_sound(&p, &g);
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
    fn a_row_without_out_links_weighs_nothing_and_is_never_cut() {
        // Rows 0..4 link to each other, row 5 is linked from them and
        // links back to row 0: 17 gathered edges. Row 4 has 100 in-edges
        // and no out-links. The edge count would cut row 4; the gather
        // cost puts every cut outside it and gives each worker its share
        // of the 17 edges' cost.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for y in 0..4u32 {
            edges.extend((0..4).filter(|&x| x != y).map(|x| (x, y)));
        }
        edges.extend((0..4u32).map(|x| (x, 5)));
        edges.push((5, 0));
        edges.extend((6..106u32).map(|x| (x, 4)));
        let g = GraphBuilder::from_edges(106, &edges);
        assert_eq!((g.out_degree(NodeId(4)), g.in_degree(NodeId(4))), (0, 100));
        // A cut inside row 4 would make it a boundary row, which the
        // audit refuses.
        for parts in [2usize, 3, 4] {
            assert_edge_partition_sound(&EdgePartition::balanced(&g, parts), &g);
        }
        // Nothing to gather: one worker holds every row, the rest none.
        let spokes: Vec<(u32, u32)> = (1..50u32).map(|x| (x, 0)).collect();
        let star_hub = GraphBuilder::from_edges(50, &spokes);
        let p = EdgePartition::balanced(&star_hub, 4);
        assert_edge_partition_sound(&p, &star_hub);
        assert_eq!(p.chunk_edges(), vec![0; 4]);
        assert_eq!(p.interior(3), 0..50);
    }

    #[test]
    fn a_source_that_opens_a_line_costs_two_units() {
        // Rows 0 and 1 link to each other. Row 0 also gathers from 24
        // sources eight ids apart, each opening a line; row 1 from the
        // 24 neighbours 104..128, four to a line. Equal edge counts,
        // unequal cost: the cut hands row 0's worker fewer edges.
        let mut edges: Vec<(u32, u32)> = vec![(0, 1), (1, 0)];
        edges.extend((1..=24u32).map(|i| (8 * i, 0)));
        edges.extend((104..128u32).map(|x| (x, 1)));
        let g = GraphBuilder::from_edges(128, &edges);
        let p = EdgePartition::balanced(&g, 2);
        assert_edge_partition_sound(&p, &g);
        let gathered = p.chunk_edges();
        assert_eq!(gathered.iter().sum::<usize>(), 50);
        assert!(gathered[0] < gathered[1], "{gathered:?}");
    }

    #[test]
    fn edge_partition_is_deterministic() {
        let g = star(256);
        assert_eq!(EdgePartition::balanced(&g, 5), EdgePartition::balanced(&g, 5));
    }
}
