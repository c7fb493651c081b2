//! The engine's resident entry: k jump vectors through one CSR traversal
//! per sweep — one attempt; [`crate::solve_columns`] is the production
//! solve built on it.
//!
//! Mass estimation (Section 3.5 of the paper) needs **two** PageRank
//! solves over the same graph — `p = PR(v)` with the uniform jump and
//! `p′ = PR(w)` with the core-restricted jump. Run sequentially, the
//! edge structure (by far the largest working set) is streamed from
//! memory twice per pair of sweeps. [`solve_batch`] instead advances all
//! k columns together: each sweep walks the in-CSR **once**, and every
//! gathered neighbour contributes to all k accumulators while its cache
//! lines are hot. A single-vector solve is the same call with one
//! column.
//!
//! The sweep machinery lives in [`crate::engine`]: this module
//! validates, sizes the pool via the auto-sizer
//! ([`crate::parallel::solve_path`]), feeds the engine's loop the
//! in-CSR as its resident row source (`CsrRows`: whole rows, one range
//! per worker, cut by `crate::partition`) and monomorphizes the engine
//! over the column count (`K` a const generic, 1–4), so the per-row
//! accumulator is a stack array the optimizer keeps in registers.
//! Batches wider than four columns run as chunks of up to four, each
//! chunk sharing one traversal.
//!
//! Because the engine's per-column arithmetic, gather-kernel edge→bank
//! assignment, and residual reduction order are all independent of `K`,
//! a column is **bit-for-bit identical** whichever batch it is solved in
//! — `tests/properties.rs` pins this. Every graph, however small, takes
//! this route; Algorithm 1 in [`crate::reference`] is the oracle it is
//! tested against, never a production path.
//!
//! Error semantics match the strict reference solvers: any column
//! tripping its guard (divergence, NaN poisoning) or the shared
//! iteration cap fails the whole batch, since the estimate consuming the
//! results needs every column. A hit cap reports the largest residual
//! among the columns it stopped.

use crate::config::PageRankConfig;
use crate::engine::{Columns, RowKind, WholeRows};
use crate::error::PageRankError;
use crate::history::ResidualHistory;
use crate::jump::{JumpSpec, JumpVector};
use crate::partition::RowPartition;
use crate::profiler::PoolProfiler;
use crate::PageRankResult;
use spammass_graph::{Graph, NodeId};
use spammass_obs as obs;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard};

/// Solves `(I − c·Tᵀ)pⱼ = (1 − c)vⱼ` for every jump vector in `jumps`
/// through a single shared traversal per sweep.
///
/// Returns one [`PageRankResult`] per jump vector, in order. Each
/// column's scores are bit-for-bit reproducible for a fixed graph,
/// config and resolved worker count, whatever the other columns are.
///
/// # Errors
/// Per-column input validation mirrors the reference solvers; a guard
/// trip or the iteration cap on any unconverged column fails the whole
/// batch.
pub fn solve_batch(
    graph: &Graph,
    jumps: &[JumpVector],
    config: &PageRankConfig,
) -> Result<Vec<PageRankResult>, PageRankError> {
    solve_batch_warm(graph, jumps, None, config)
}

/// [`solve_batch`] with per-column warm starts: column `j` is seeded from
/// `initial[j]` instead of its jump vector. `None` is the cold start for
/// every column. Warm starts change neither the fixed points nor any
/// guard semantics — the iteration contracts from any finite start —
/// only the iteration count — the incremental estimator re-solves `p`
/// and `p′` from their previous fixed points after a graph delta.
///
/// # Errors
/// Same contract as [`solve_batch`], plus
/// [`PageRankError::InitialScoresLength`] when `initial` has the wrong
/// column count or any column the wrong length.
pub fn solve_batch_warm(
    graph: &Graph,
    jumps: &[JumpVector],
    initial: Option<&[Vec<f64>]>,
    config: &PageRankConfig,
) -> Result<Vec<PageRankResult>, PageRankError> {
    config.validate()?;
    let n = graph.node_count();
    let k = jumps.len();
    let specs = jumps.iter().map(|jump| jump.spec(n)).collect::<Result<Vec<_>, _>>()?;
    if k == 0 {
        return Ok(Vec::new());
    }
    if let Some(inits) = initial {
        if inits.len() != k {
            return Err(PageRankError::InitialScoresLength { got: inits.len(), expected: k });
        }
        for p0 in inits {
            check_initial_length(p0, n)?;
        }
    }
    if n == 0 {
        return Ok(empty_results(k));
    }

    // Monomorphized dispatch: a compile-time column count turns the
    // per-row accumulator into a register-resident array and unrolls the
    // per-edge loop. Wider batches run as independent chunks of up to
    // MAX_FUSED_COLUMNS columns (each chunk one traversal per sweep).
    let mut results = Vec::with_capacity(k);
    for (i, chunk) in specs.chunks(MAX_FUSED_COLUMNS).enumerate() {
        let lo = i * MAX_FUSED_COLUMNS;
        let init_chunk = initial.map(|inits| &inits[lo..lo + chunk.len()]);
        results.extend(match chunk.len() {
            1 => solve_batch_fixed::<1>(graph, chunk, init_chunk, config)?,
            2 => solve_batch_fixed::<2>(graph, chunk, init_chunk, config)?,
            3 => solve_batch_fixed::<3>(graph, chunk, init_chunk, config)?,
            _ => solve_batch_fixed::<4>(graph, chunk, init_chunk, config)?,
        });
    }
    Ok(results)
}

/// Checks that a warm-start score vector matches the graph.
pub(crate) fn check_initial_length(p0: &[f64], n: usize) -> Result<(), PageRankError> {
    if p0.len() != n {
        return Err(PageRankError::InitialScoresLength { got: p0.len(), expected: n });
    }
    Ok(())
}

/// Widest batch a single fused traversal carries; see [`solve_batch`].
pub(crate) const MAX_FUSED_COLUMNS: usize = 4;

/// `k` trivially converged results for an empty graph.
pub(crate) fn empty_results(k: usize) -> Vec<PageRankResult> {
    (0..k)
        .map(|_| PageRankResult {
            scores: Vec::new(),
            iterations: 0,
            residual: 0.0,
            converged: true,
            residual_history: ResidualHistory::new(),
        })
        .collect()
}

/// Runs a validated `K`-column chunk (`1 ≤ K ≤ 4`, `n > 0`) through the
/// engine on the pool the auto-sizer picks, the in-CSR cut into whole
/// rows of about equal gather cost.
fn solve_batch_fixed<const K: usize>(
    graph: &Graph,
    specs: &[JumpSpec],
    initial: Option<&[Vec<f64>]>,
    config: &PageRankConfig,
) -> Result<Vec<PageRankResult>, PageRankError> {
    let threads = crate::parallel::solve_path(config, graph);
    let mut span = obs::span("pagerank.solve.batch");
    span.record("threads", threads as f64);
    span.record("columns", K as f64);
    let partition = RowPartition::balanced(graph, threads);
    let profiler = PoolProfiler::from_live(partition.chunk_edges(), partition.chunk_costs(), K);
    let source = CsrRows::new(graph, config.damping, partition.rows());
    // All solve-lifetime state is allocated up front, and only
    // allocated: the set-up round fills it, and no round allocates (see
    // tests/alloc.rs).
    let mut coef = vec![0.0f64; graph.node_count()];
    let mut cols = Columns::<K>::new(specs, graph.node_count(), config);
    let outcome = cols.solve(&mut coef, initial, config, profiler.as_ref(), &source);
    // Telemetry on every exit path, including guard errors.
    cols.record(&mut span);
    outcome?;
    Ok(cols.into_results())
}

/// The in-CSR as the engine's resident row source: one range of whole
/// rows per worker and, per worker, its live and its terminal rows as its
/// set-up pass listed them, so a sweep and the finish walk only the rows
/// they relax.
pub(crate) struct CsrRows<'a> {
    in_offsets: &'a [u32],
    in_sources: &'a [NodeId],
    out_offsets: &'a [u32],
    damping: f64,
    rows: Vec<Range<usize>>,
    lists: Vec<Mutex<RowLists>>,
}

/// One worker's rows by kind: the first `live` slots of `rows` hold its
/// live rows in ascending order, the last `terminal` its terminal rows.
struct RowLists {
    rows: Vec<u32>,
    live: usize,
    terminal: usize,
}

impl<'a> CsrRows<'a> {
    /// `graph`'s rows, worker `w` owning `rows[w]` — ranges that tile
    /// `0..n` in ascending order. The row lists are allocated here, 4
    /// bytes a row, and filled by the set-up pass.
    pub(crate) fn new(graph: &'a Graph, damping: f64, rows: Vec<Range<usize>>) -> CsrRows<'a> {
        let lists = rows
            .iter()
            .map(|r| Mutex::new(RowLists { rows: vec![0; r.len()], live: 0, terminal: 0 }))
            .collect();
        CsrRows {
            in_offsets: graph.in_offsets(),
            in_sources: graph.in_sources(),
            out_offsets: graph.out_offsets(),
            damping,
            rows,
            lists,
        }
    }

    /// Row `y`'s in-edge sources, in edge order.
    #[inline(always)]
    fn in_row(&self, y: usize) -> &[NodeId] {
        &self.in_sources[self.in_offsets[y] as usize..self.in_offsets[y + 1] as usize]
    }

    /// Worker `w`'s lists; only worker `w` locks them, once a pass.
    fn lists(&self, w: usize) -> MutexGuard<'_, RowLists> {
        self.lists[w].lock().expect("row lists are only locked by their own worker")
    }
}

impl WholeRows for CsrRows<'_> {
    fn rows(&self) -> &[Range<usize>] {
        &self.rows
    }

    /// Works out each row's `coef` from its out-degree, visits the row
    /// and lists it by the kind `visit` returns.
    fn set_up(
        &self,
        worker: usize,
        coef: &mut [f64],
        mut visit: impl FnMut(usize, &[NodeId], f64) -> RowKind,
    ) -> Result<(), PageRankError> {
        let mut lists = self.lists(worker);
        let RowLists { rows, live, terminal } = &mut *lists;
        let end = rows.len();
        (*live, *terminal) = (0, 0);
        for (i, y) in self.rows[worker].clone().enumerate() {
            let out = self.out_offsets[y + 1] - self.out_offsets[y];
            let w = if out == 0 { 0.0 } else { self.damping / out as f64 };
            coef[i] = w;
            match visit(y, self.in_row(y), w) {
                RowKind::Live => {
                    rows[*live] = y as u32;
                    *live += 1;
                }
                RowKind::Terminal => {
                    *terminal += 1;
                    rows[end - *terminal] = y as u32;
                }
                RowKind::Fixed => {}
            }
        }
        Ok(())
    }

    /// Walks the worker's list of `kind`.
    fn rows_of_kind(
        &self,
        worker: usize,
        kind: RowKind,
        _coef: &[f64],
        mut visit: impl FnMut(usize, &[NodeId]),
    ) -> Result<(), PageRankError> {
        let lists = self.lists(worker);
        let listed = match kind {
            RowKind::Live => &lists.rows[..lists.live],
            _ => &lists.rows[lists.rows.len() - lists.terminal..],
        };
        for &y in listed {
            visit(y as usize, self.in_row(y as usize));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::solve_cold;
    use crate::reference::jacobi::solve_jacobi;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spammass_graph::GraphBuilder;

    fn cfg() -> PageRankConfig {
        // Quota override lets `.threads(k)` run k workers on these
        // mid-size test graphs (the default quota would size them to one).
        PageRankConfig::default().edges_per_thread(1)
    }

    fn random_graph(n: usize, m: usize, seed: u64) -> spammass_graph::Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::with_capacity(n, m);
        for _ in 0..m {
            let f = rng.gen_range(0..n as u32);
            let t = rng.gen_range(0..n as u32);
            if f != t {
                b.add_edge(spammass_graph::NodeId(f), spammass_graph::NodeId(t));
            }
        }
        b.build()
    }

    fn core_jump(n: usize) -> JumpVector {
        JumpVector::core((0..(n as u32) / 10).map(spammass_graph::NodeId).collect::<Vec<_>>(), n)
    }

    #[test]
    fn one_worker_batch_is_within_the_bound_of_algorithm_1_per_column() {
        // With the default quota this graph runs on one worker. Each
        // column is the engine's own solve, and lies within two
        // fixed-point bounds `c·ε/(1−c)` (L1) of Algorithm 1's answer for
        // the same jump, in no more sweeps.
        let g = random_graph(40_000, 160_000, 29);
        let jumps = [JumpVector::Uniform, core_jump(g.node_count())];
        let config = PageRankConfig::default().threads(2);
        let batch = solve_batch(&g, &jumps, &config).unwrap();
        let c = config.damping;
        let bound = 2.0 * c * config.tolerance / (1.0 - c);
        for (j, (jump, col)) in jumps.iter().zip(&batch).enumerate() {
            let solo = solve_jacobi(&g, jump, &config).unwrap();
            let l1: f64 = solo.scores.iter().zip(&col.scores).map(|(a, b)| (a - b).abs()).sum();
            assert!(l1 <= bound, "column {j}: L1 {l1:e} over {bound:e}");
            assert!(col.iterations <= solo.iterations, "column {j}");
            assert!(col.converged, "column {j}");
        }
    }

    #[test]
    fn columns_converge_independently() {
        // The core jump has far less mass, so its column freezes earlier
        // (or later) than the uniform one; both must still be correct.
        let g = random_graph(40_000, 160_000, 37);
        let jumps = [JumpVector::Uniform, core_jump(g.node_count())];
        let batch = solve_batch(&g, &jumps, &cfg().threads(2)).unwrap();
        assert!(batch.iter().all(|r| r.converged));
        assert!(
            batch[0].iterations != batch[1].iterations || batch[0].residual != batch[1].residual,
            "columns should not be trivially identical"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let g = random_graph(40_000, 120_000, 41);
        let jumps = [JumpVector::Uniform, core_jump(g.node_count())];
        let a = solve_batch(&g, &jumps, &cfg().threads(3)).unwrap();
        let b = solve_batch(&g, &jumps, &cfg().threads(3)).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.scores, y.scores);
            assert_eq!(x.iterations, y.iterations);
        }
    }

    #[test]
    fn works_on_tiny_graphs_single_threaded() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let batch = solve_batch(&g, &[JumpVector::Uniform], &cfg()).unwrap();
        let solo = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
        // Both solutions lie within c·ε/(1−c) of the fixed point; assert
        // the numeric bound the API promises.
        for (a, b) in batch[0].scores.iter().zip(&solo.scores) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_batch_and_empty_graph_are_fine() {
        let g = random_graph(100, 300, 43);
        assert!(solve_batch(&g, &[], &cfg()).unwrap().is_empty());
        let empty = GraphBuilder::from_edges(0, &[]);
        let r = solve_batch(&empty, &[JumpVector::Custom(Vec::new())], &cfg()).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r[0].scores.is_empty());
        assert!(r[0].converged);
    }

    #[test]
    fn iteration_cap_fails_the_whole_batch() {
        let g = random_graph(40_000, 120_000, 47);
        let tight = cfg().threads(2).max_iterations(2).tolerance(1e-300);
        assert!(matches!(
            solve_batch(&g, &[JumpVector::Uniform, core_jump(g.node_count())], &tight),
            Err(PageRankError::DidNotConverge { iterations: 2, .. })
        ));
    }

    #[test]
    fn a_hit_cap_reports_the_worst_column() {
        // The first column carries a thousandth of the uniform column's
        // mass and so a far smaller residual; it must not be the one the
        // batch's error quotes.
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let light = JumpVector::SingleNode { node: spammass_graph::NodeId(0), mass: 0.001 };
        let jumps = [light, JumpVector::Uniform];
        let tight = PageRankConfig::default().max_iterations(20);
        let residual_of = |jumps: &[JumpVector]| match solve_batch(&g, jumps, &tight) {
            Err(PageRankError::DidNotConverge { iterations: 20, residual }) => residual,
            other => panic!("expected the cap, got {other:?}"),
        };
        let (light, uniform) = (residual_of(&jumps[..1]), residual_of(&jumps[1..]));
        assert!(light < uniform / 10.0, "{light:e} vs {uniform:e}");
        assert_eq!(residual_of(&jumps), uniform);
    }

    #[test]
    fn set_up_lists_each_workers_live_and_terminal_rows() {
        // 0 ⇄ 1, both → 2 (terminal), 3 → 0 (fixed), 4 isolated (fixed),
        // 1 → 5 (live, linking to 6), 6 terminal.
        let g =
            GraphBuilder::from_edges(7, &[(0, 1), (1, 0), (0, 2), (1, 2), (3, 0), (1, 5), (5, 6)]);
        let source = CsrRows::new(&g, 0.85, vec![0..4, 4..7]);
        let mut coef = vec![0.0f64; 7];
        let (front, back) = coef.split_at_mut(4);
        for (worker, window) in [(0, front), (1, back)] {
            source.set_up(worker, window, |_, srcs, w| RowKind::of(srcs.len(), w)).unwrap();
        }
        assert_eq!(coef, [0.85 / 2.0, 0.85 / 3.0, 0.0, 0.85, 0.0, 0.85, 0.0]);
        let listed = |worker: usize, kind: RowKind| {
            let mut rows = Vec::new();
            source.rows_of_kind(worker, kind, &coef, |y, srcs| rows.push((y, srcs.len()))).unwrap();
            rows
        };
        use RowKind::{Live, Terminal};
        assert_eq!(listed(0, Live), [(0, 2), (1, 1)]);
        assert_eq!(listed(0, Terminal), [(2, 2)]);
        assert_eq!(listed(1, Live), [(5, 1)]);
        assert_eq!(listed(1, Terminal), [(6, 1)]);
    }

    #[test]
    fn a_source_solves_to_the_same_bits_every_time() {
        // Every set-up pass lists its rows afresh, so one source serves
        // any number of solves.
        let g = random_graph(3_000, 9_000, 59);
        let n = g.node_count();
        let config = PageRankConfig::default();
        let specs: Vec<JumpSpec> =
            [JumpVector::Uniform, core_jump(n)].iter().map(|j| j.spec(n).unwrap()).collect();
        let source = CsrRows::new(&g, config.damping, vec![0..1_000, 1_000..1_700, 1_700..n]);
        let first = solve_cold::<2>(&specs, &config, &source).unwrap();
        let again = solve_cold::<2>(&specs, &config, &source).unwrap();
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.scores, b.scores);
            assert_eq!((a.iterations, a.residual.to_bits()), (b.iterations, b.residual.to_bits()));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Wherever the whole-row cuts fall, each column lies within two
        /// fixed-point bounds `c·ε/(1−c)` (L1) of Algorithm 1's answer:
        /// a cut moves which reads are fresh, not what the step bounds.
        #[test]
        fn any_whole_row_cut_is_within_the_bound_of_algorithm_1(
            n in 10usize..400,
            per_node in 1usize..6,
            seed in 0u64..1 << 20,
            cuts in proptest::collection::vec(0.0f64..1.0, 0..4),
        ) {
            let g = random_graph(n, n * per_node, seed);
            let mut at: Vec<usize> = cuts.iter().map(|&f| (f * n as f64) as usize).collect();
            at.sort_unstable();
            let rows: Vec<Range<usize>> = std::iter::once(0)
                .chain(at.iter().copied())
                .zip(at.iter().copied().chain(std::iter::once(n)))
                .map(|(start, end)| start..end)
                .collect();
            let config = PageRankConfig::default();
            let jumps = [JumpVector::Uniform, core_jump(n)];
            let specs: Vec<JumpSpec> = jumps.iter().map(|j| j.spec(n).unwrap()).collect();
            let source = CsrRows::new(&g, config.damping, rows.clone());
            let solved = solve_cold::<2>(&specs, &config, &source).unwrap();
            let c = config.damping;
            let bound = 2.0 * c * config.tolerance / (1.0 - c);
            for (j, (jump, col)) in jumps.iter().zip(&solved).enumerate() {
                let solo = solve_jacobi(&g, jump, &config).unwrap();
                let l1: f64 =
                    solo.scores.iter().zip(&col.scores).map(|(a, b)| (a - b).abs()).sum();
                proptest::prop_assert!(
                    l1 <= bound,
                    "column {} over {:?}: L1 {:e} over {:e}", j, rows, l1, bound
                );
                proptest::prop_assert!(col.converged);
            }
        }
    }

    #[test]
    fn invalid_jump_is_rejected_before_solving() {
        let g = random_graph(100, 300, 53);
        let bad = JumpVector::Custom(vec![0.5; 7]); // wrong length
        assert!(solve_batch(&g, &[JumpVector::Uniform, bad], &cfg()).is_err());
    }
}
