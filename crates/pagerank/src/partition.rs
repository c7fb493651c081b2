//! Work partitioning for the engine's resident sweep.
//!
//! [`RowPartition`] cuts the destination rows `0..n` into `parts`
//! contiguous ranges of about **equal gather cost**, one per pool worker.
//! Only the in-edges of rows whose node has out-links cost anything — the
//! only ones a sweep reads (see [`crate::engine`]: a row without
//! out-links is relaxed once, after the last sweep, and a row without
//! in-edges has none to gather). Such an edge costs one unit for reading
//! its source, plus one more when the source opens a new cache line of
//! the contribution buffer: when it is the row's first, or does not share
//! a group of [`GROUP_IDS`] ids with the source before it (a row's
//! sources ascend). Edge counts alone leave a worker whose rows gather
//! from all over the graph up to 1.8× slower than one whose rows gather
//! from runs of neighbouring ids — a spam farm's target reading its
//! boosters — and which of the two a worker gets depends on the graph;
//! the line term evens that out.
//!
//! A cut falls on a row boundary, so every worker relaxes whole rows and
//! nothing is combined across workers. With `t` the total cost, cut `w`
//! aims at `⌊t·w/parts⌋`: the *target row* is the first row whose end
//! brings the running cost to that target, and the cut sits at whichever
//! of its two boundaries is nearer the target, the lower one on a tie —
//! within half the target row's cost of it. A row heavier than a worker's
//! share is not split; on the benchmark webs the heaviest row is under
//! 1 % of the total and the cut's imbalance under 1.5 % (EXPERIMENTS.md).
//!
//! Weighing reads every in-source once, on two threads: the rows are
//! split at half the edges between the calling thread and one scoped
//! thread, each keeping the cost and gathered edges of every block of
//! [`WEIGH_ROWS`] rows. The cut search then steps over whole blocks and
//! weighs row by row only inside the block where a target falls, so it
//! puts every cut where a serial walk over the running cost would.
//!
//! The partition is a pure function of `(graph, parts)`, so the
//! fixed-partition determinism guarantee of the engine reduces to
//! reusing one partition per solve.

use spammass_graph::{Graph, NodeId};
use std::ops::Range;

/// Ids whose contributions share one 64-byte line in the gather-cost
/// model: a two-column solve — `[p, p′]`, the estimator's pair — stores
/// 16 bytes a node.
pub(crate) const GROUP_IDS: u32 = 4;

/// Rows per block of the weighing pass: the cut search steps over a
/// whole block whose cost keeps it below the next target and weighs row
/// by row only inside the block where a target falls.
const WEIGH_ROWS: usize = 1024;

/// A partition of the destination rows `0..n` into `parts` contiguous
/// ranges of about equal gather cost, with each range's cost and
/// gathered edges.
///
/// Invariants (pinned by unit and property tests): the ranges tile `0..n`
/// in ascending order, and each cut lies within half its target row's
/// cost of its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RowPartition {
    /// Row boundaries: worker `w` owns rows `cuts[w]..cuts[w+1]`.
    cuts: Vec<usize>,
    /// Gathered edges per worker.
    gathered: Vec<usize>,
    /// Gather cost per worker.
    costs: Vec<usize>,
}

impl RowPartition {
    /// Cuts the graph's rows into `parts` ranges of about equal gather
    /// cost. Pure in `(graph, parts)`.
    pub(crate) fn balanced(graph: &Graph, parts: usize) -> RowPartition {
        let n = graph.node_count();
        let m = graph.edge_count();
        let parts = parts.max(1);
        let offsets = graph.in_offsets();
        let srcs = graph.in_sources();
        let off = |y: usize| offsets[y] as usize;
        let opens = |a: NodeId, b: NodeId| a.0 / GROUP_IDS != b.0 / GROUP_IDS;
        let row_cost = |y: usize| -> usize {
            let row = &srcs[off(y)..off(y + 1)];
            if row.is_empty() || graph.out_degree(NodeId(y as u32)) == 0 {
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
        // `y` is the target row of the latest target, `before` the cost of
        // the rows below it and `below` their gathered edges; all three
        // only move forward, a whole block at a time while the block stays
        // below the target. `cost_at` and `gathered_at` are the running
        // cost and gathered edges at each cut.
        let mut cuts = vec![0];
        let mut cost_at = vec![0];
        let mut gathered_at = vec![0];
        let (mut y, mut before, mut below) = (0usize, 0usize, 0usize);
        for w in 1..parts {
            let target = total * w / parts;
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
            // `before ≤ target ≤ before + cost`: the nearer boundary of
            // row `y`, the lower one on a tie.
            let cost = if y < n { row_cost(y) } else { 0 };
            if before + cost - target < target - before {
                cuts.push(y + 1);
                cost_at.push(before + cost);
                gathered_at.push(below + row_gathered(y, cost));
            } else {
                cuts.push(y);
                cost_at.push(before);
                gathered_at.push(below);
            }
        }
        cuts.push(n);
        cost_at.push(total);
        gathered_at.push(total_gathered);
        let gathered = gathered_at.windows(2).map(|g| g[1] - g[0]).collect();
        let costs = cost_at.windows(2).map(|c| c[1] - c[0]).collect();
        RowPartition { cuts, gathered, costs }
    }

    /// Every worker's rows, in worker order.
    pub(crate) fn rows(&self) -> Vec<Range<usize>> {
        self.cuts.windows(2).map(|c| c[0]..c[1]).collect()
    }

    /// Gathered edges per worker — the in-edges a sweep reads there
    /// (diagnostic).
    pub(crate) fn chunk_edges(&self) -> &[usize] {
        &self.gathered
    }

    /// Gather cost per worker — what the cuts balance (diagnostic).
    pub(crate) fn chunk_costs(&self) -> &[usize] {
        &self.costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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

    /// Every row's gather cost, worked out edge by edge: 0 for a row
    /// without out-links, else per in-edge 1, plus 1 when the source is
    /// the row's first or leaves the previous source's group.
    fn row_costs(g: &Graph) -> Vec<usize> {
        g.nodes()
            .map(|y| {
                if g.out_degree(y) == 0 {
                    return 0;
                }
                let srcs = g.in_neighbors(y);
                (0..srcs.len())
                    .map(|i| {
                        1 + usize::from(
                            i == 0 || srcs[i].0 / GROUP_IDS != srcs[i - 1].0 / GROUP_IDS,
                        )
                    })
                    .sum()
            })
            .collect()
    }

    /// Where the cut falls, worked out serially row by row from the
    /// running cost `running[y]` of the rows below `y`: cut `w`'s target
    /// row is the first whose end reaches `⌊t·w/parts⌋`, and the cut is
    /// the nearer of that row's boundaries, the lower on a tie. Returns
    /// the cuts (`parts + 1` of them), each range's cost and its gathered
    /// edges.
    fn serial_cut(g: &Graph, parts: usize) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        let n = g.node_count();
        let costs = row_costs(g);
        let mut running = vec![0usize];
        for &c in &costs {
            running.push(running.last().unwrap() + c);
        }
        let total = running[n];
        let mut cuts = vec![0usize];
        for w in 1..parts {
            let target = total * w / parts;
            let row = running[1..].partition_point(|&c| c < target);
            let upper = running.get(row + 1).map_or(usize::MAX, |&c| c - target);
            cuts.push(if upper < target - running[row] { row + 1 } else { row });
        }
        cuts.push(n);
        let ranges = cuts.windows(2).map(|c| c[0]..c[1]);
        let range_costs = ranges.clone().map(|r| costs[r].iter().sum()).collect();
        let gathered = ranges
            .map(|r| r.filter(|&y| costs[y] > 0).map(|y| g.in_degree(NodeId(y as u32))).sum())
            .collect();
        (cuts, range_costs, gathered)
    }

    /// Structural audit: the ranges tile `0..n` in order, each cut lies
    /// within half its target row's cost of its target, and each range's
    /// cost and gathered edges are reported.
    fn assert_sound(p: &RowPartition, g: &Graph, parts: usize) {
        let n = g.node_count();
        let costs = row_costs(g);
        let total: usize = costs.iter().sum();
        let rows = p.rows();
        assert_eq!(rows.len(), parts);
        let mut next = 0usize;
        let mut running = 0usize;
        for (w, r) in rows.iter().enumerate() {
            assert_eq!(r.start, next, "ranges must tile 0..{n} in order: {rows:?}");
            assert!(r.start <= r.end, "{rows:?}");
            next = r.end;
            if w > 0 {
                let target = total * w / parts;
                // The target row: the first whose end reaches the target.
                let (mut row, mut sum) = (0usize, 0usize);
                while row < n && sum + costs[row] < target {
                    sum += costs[row];
                    row += 1;
                }
                let half = costs.get(row).copied().unwrap_or(0);
                assert!(
                    2 * running.abs_diff(target) <= half,
                    "cut {w} at row {} costs {running}, target {target}, target row {row} \
                     costs {half}",
                    r.start
                );
            }
            let cost: usize = costs[r.clone()].iter().sum();
            assert_eq!(p.chunk_costs()[w], cost);
            let gathered: usize =
                r.clone().filter(|&y| costs[y] > 0).map(|y| g.in_degree(NodeId(y as u32))).sum();
            assert_eq!(p.chunk_edges()[w], gathered);
            running += cost;
        }
        assert_eq!(next, n, "ranges must cover 0..{n}");
    }

    #[test]
    fn row_partition_is_sound_on_varied_shapes() {
        for (graph, parts) in [
            (star(50), 4),
            (star(1), 3),
            (star(3), 8),
            (GraphBuilder::from_edges(0, &[]), 2),
            (GraphBuilder::from_edges(10, &[(0, 1), (1, 2), (9, 0)]), 16),
            (GraphBuilder::from_edges(6, &[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]), 2),
        ] {
            let p = RowPartition::balanced(&graph, parts);
            assert_sound(&p, &graph, parts);
        }
    }

    #[test]
    fn a_hub_row_goes_whole_to_one_worker() {
        // The star's hub holds 999 of the 1000 in-edges: whole rows give
        // it to one worker, and the cut does not split it.
        let g = star(1000);
        let p = RowPartition::balanced(&g, 4);
        assert_sound(&p, &g, 4);
        let owner: Vec<usize> = (0..4).filter(|&w| p.rows()[w].contains(&0)).collect();
        assert_eq!(owner.len(), 1);
        assert_eq!(p.chunk_edges()[owner[0]], 999);
    }

    #[test]
    fn a_single_worker_owns_every_row() {
        let g = star(100);
        let p = RowPartition::balanced(&g, 1);
        assert_sound(&p, &g, 1);
        assert_eq!(p.rows(), vec![0..100]);
    }

    #[test]
    fn a_row_without_out_links_weighs_nothing() {
        // Rows 0..4 link to each other, row 5 is linked from them and
        // links back to row 0: 17 gathered edges. Row 4 has 100 in-edges
        // and no out-links. The edge count would give its worker most of
        // the work; the gather cost gives each worker its share of the
        // 17 edges' cost.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for y in 0..4u32 {
            edges.extend((0..4).filter(|&x| x != y).map(|x| (x, y)));
        }
        edges.extend((0..4u32).map(|x| (x, 5)));
        edges.push((5, 0));
        edges.extend((6..106u32).map(|x| (x, 4)));
        let g = GraphBuilder::from_edges(106, &edges);
        assert_eq!((g.out_degree(NodeId(4)), g.in_degree(NodeId(4))), (0, 100));
        for parts in [2usize, 3, 4] {
            let p = RowPartition::balanced(&g, parts);
            assert_sound(&p, &g, parts);
            assert_eq!(p.chunk_edges().iter().sum::<usize>(), 17);
        }
        // Nothing to gather: every target is 0, so one worker holds every
        // row and the rest none.
        let spokes: Vec<(u32, u32)> = (1..50u32).map(|x| (x, 0)).collect();
        let star_hub = GraphBuilder::from_edges(50, &spokes);
        let p = RowPartition::balanced(&star_hub, 4);
        assert_sound(&p, &star_hub, 4);
        assert_eq!(p.chunk_edges(), &[0; 4]);
        assert_eq!(p.rows()[3], 0..50);
    }

    #[test]
    fn a_source_that_opens_a_line_costs_two_units() {
        // Rows 0 and 1 link to each other. Row 0 also gathers from 24
        // sources eight ids apart, each opening a line; row 1 from the
        // 24 neighbours 104..128, four to a line. Equal edge counts,
        // unequal cost: 50 units against 32, so the cut gives row 0 a
        // worker of its own.
        let mut edges: Vec<(u32, u32)> = vec![(0, 1), (1, 0)];
        edges.extend((1..=24u32).map(|i| (8 * i, 0)));
        edges.extend((104..128u32).map(|x| (x, 1)));
        let g = GraphBuilder::from_edges(128, &edges);
        let p = RowPartition::balanced(&g, 2);
        assert_sound(&p, &g, 2);
        assert_eq!(p.rows(), vec![0..1, 1..g.node_count()]);
        assert_eq!(p.chunk_costs(), &[50, 32]);
    }

    #[test]
    fn row_partition_is_deterministic() {
        let g = star(256);
        assert_eq!(RowPartition::balanced(&g, 5), RowPartition::balanced(&g, 5));
    }

    fn arb_graph() -> impl Strategy<Value = Graph> {
        (2usize..=25).prop_flat_map(|n| {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..80)
                .prop_map(move |edges| GraphBuilder::from_edges(n, &edges_without_loops(edges)))
        })
    }

    /// Graphs wider than the weighing blocks, so the cut search steps
    /// over whole blocks and the weighing splits across two threads.
    fn arb_wide_graph() -> impl Strategy<Value = Graph> {
        (1_000usize..=4_000).prop_flat_map(|n| {
            let edge = (0..n as u32, 0..n as u32, 0..4u32);
            proptest::collection::vec(edge, 0..12_000).prop_map(move |edges| {
                // One edge in four points at one of a few hubs.
                let edges = edges
                    .into_iter()
                    .map(|(f, t, hub)| if hub == 0 { (f, t % 20) } else { (f, t) })
                    .collect();
                GraphBuilder::from_edges(n, &edges_without_loops(edges))
            })
        })
    }

    fn edges_without_loops(edges: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        edges.into_iter().filter(|(f, t)| f != t).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The ranges tile `0..n` in order, every cut lies within half its
        /// target row's cost of its target, and the two-thread weighing
        /// with its block-at-a-time search puts every cut, and reports
        /// every range's cost and gathered edges, exactly where a serial
        /// walk over the rows' running cost does — on small graphs and on
        /// graphs many weighing blocks wide.
        #[test]
        fn the_cut_is_the_serial_running_sum_cut(
            small in arb_graph(),
            wide in arb_wide_graph(),
            parts in 1usize..=9,
        ) {
            for g in [&small, &wide] {
                let p = RowPartition::balanced(g, parts);
                assert_sound(&p, g, parts);
                let (cuts, costs, gathered) = serial_cut(g, parts);
                prop_assert_eq!(&p.cuts, &cuts, "{} parts", parts);
                prop_assert_eq!(p.chunk_costs(), &costs[..]);
                prop_assert_eq!(p.chunk_edges(), &gathered[..]);
            }
        }

        /// The balance a whole-row cut can promise: each cut lies within
        /// half a row of its target, so every worker's cost is its equal
        /// share to within the heaviest row's cost, and no worker carries
        /// more than a share plus that row.
        #[test]
        fn every_range_is_within_a_heaviest_row_of_its_share(
            small in arb_graph(),
            wide in arb_wide_graph(),
            parts in 1usize..=9,
        ) {
            for g in [&small, &wide] {
                let costs = row_costs(g);
                let total: usize = costs.iter().sum();
                let heaviest = costs.iter().copied().max().unwrap_or(0);
                let p = RowPartition::balanced(g, parts);
                for (w, &cost) in p.chunk_costs().iter().enumerate() {
                    let share = total * (w + 1) / parts - total * w / parts;
                    prop_assert!(
                        cost.abs_diff(share) <= heaviest,
                        "worker {} of {} costs {}, share {}, heaviest row {}",
                        w, parts, cost, share, heaviest
                    );
                }
            }
        }
    }
}
