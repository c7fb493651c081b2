//! The one sweep: a per-row relaxation body and a `K`-column controller,
//! driven by two row sources.
//!
//! The sweep's state is the iterate `p` and its **contributions**
//! `q[x] = p[x]·c/out(x)`, both interleaved `n×K`. A row's in-edge sum
//! `Σ_{x→y} q[x]` ([`kernel::gather_row`]) reads one random row per edge
//! — the product is formed once per source and sweep, when the source's
//! row is relaxed, not once per out-edge. `p` is rewritten in place; `q`
//! alternates between two buffers by sweep parity.
//!
//! **Only live rows are swept.** Every row is one of three kinds
//! ([`RowKind`]), told apart by the row's in-edge count and `coef[y]`:
//!
//! * a **fixed** row has no in-edges, so `p[y] = (1−c)·v[y]` exactly. The
//!   set-up round before the first sweep writes that value, and its
//!   contribution into *both* buffers, cold or warm, with the bits a
//!   relaxation of the row would give; no sweep touches it again;
//! * a **terminal** row has in-edges but no out-links: `coef[y] = 0`, so
//!   its contribution is 0 in both buffers and no row reads its `p`
//!   while the solve runs. Sweeps skip it; once the last sweep is done a
//!   single **finish** round relaxes it from the final contribution
//!   buffer — a Jacobi gather over the whole row in edge order — so its
//!   value depends only on that buffer, whatever the row source or the
//!   worker count;
//! * every other row is **live**: relaxed every sweep, and the only rows
//!   in the per-column residual and therefore in the verdicts.
//!
//! The sweep relaxes **in place** where a worker can: when a worker
//! relaxes row `y`, an in-neighbour it already relaxed earlier in the same
//! sweep — a source in `first..y`, `first` being the worker's first row —
//! is read from the write contribution buffer, every other one from the
//! read buffer. Within one worker's rows that is Gauss–Seidel; across
//! workers, and for the resident source's boundary pieces, it stays
//! Jacobi. `crate::chain` derives why the step still bounds the true
//! residual and contracts by `c` a sweep.
//!
//! * [`RowBody`] is the arithmetic of one sweep for one destination row:
//!   `relax` — `(1−c)·v[y]` from the column's jump spec plus the gathered
//!   in-edge sum, committed to `p[y]` and `q[y]` with each column's
//!   residual contribution — or, for a column that already converged,
//!   `q[y]` copied through bit-exact.
//! * [`Jumps`] is what needs only the jump specs: a row's seed before the
//!   first sweep, a fixed row, a terminal row's finish.
//! * [`Columns`] owns everything that outlives a sweep: the iterate, the
//!   contribution pair, the jump specs, the per-column guards and
//!   residual histories, and the freeze / convergence / iteration-cap
//!   decision. [`Columns::new`] only allocates; each row source's set-up
//!   round seeds the rows.
//!
//! A resident sweep walks each worker's list of live rows: per live row
//! it reads the list entry (4 bytes), the row's two in-offsets (at most
//! 8, and never more than the `4(n+1)` of the whole array), `8(4K+1)` of
//! node vectors — `p` read and written back, the stale `q` read, the
//! fresh `q` written, `coef` read — and its in-edges, 4 bytes each, plus
//! one bit per node for each core or single-node column; beyond that,
//! each gathered edge's one random read lands in `q`. For `n_l` live rows
//! holding `m_g` in-edges that is `12n_l + 4m_g + 8n_l(4K+1)` bytes; a
//! fixed or terminal row costs a sweep nothing. The streamed source
//! still visits every row a sweep, so it adds the `4(n+1)` offsets and
//! the `8n` of `coef` that tell the kinds apart.
//!
//! The **resident** source is [`solve_pooled`] below: the in-CSR cut into
//! ranges of equal gather cost ([`EdgePartition`]), one worker per
//! range on the persistent pool ([`crate::pool`]), one handoff per round.
//! Round 0 sets up: each worker, over its own rows, computes `coef`,
//! seeds `p` and `q`, writes its fixed rows and lists its live and its
//! terminal rows. In each sweep a worker relaxes the live interior rows
//! on its list in place, in ascending order, straight into `p` and the
//! write buffer, and gathers the up-to-two partial row pieces at its
//! range boundaries from the read buffer into private scratch; after the
//! handoff the control thread relaxes the boundary rows from those pieces
//! in fixed worker order and folds each column's residual from the
//! workers' partial sums — worker index order, then the boundary rows —
//! so the convergence decision is independent of thread scheduling. The
//! round after the last sweep finishes each worker's terminal rows and
//! de-interleaves its rows into the result columns.
//! The **streamed** source is [`crate::stream::solve_batch_streamed`]
//! through [`Columns::solve_whole_rows`]: the same body, controller, pool
//! and handoff over rows each worker decodes block-at-a-time from its own
//! range of a compressed image's in-blocks, in place over that range,
//! with one extra round before the sweeps to seed the rows and write the
//! fixed ones and one after them to finish the terminal rows. Blocks hold
//! whole rows, so that source has no boundary pieces and no merge phase;
//! it de-interleaves on the calling thread, after freeing the
//! contribution buffers, to stay inside its budget.
//!
//! Determinism: for a fixed `(graph, threads)` the partition (and so
//! which reads are fresh), the per-row accumulation order, the
//! boundary-row order and the residual reduction order are all fixed, so
//! results are bit-for-bit reproducible across runs; a column is
//! bit-identical whatever `K` it is solved under because the gather
//! kernel's edge→bank assignment ignores `K` and a column's fresh reads
//! are its own; across worker counts scores agree to rounding (≤ 1e-12
//! at the default tolerance), for either source, because the workers'
//! first rows move; and the one-worker streamed solve is bit-identical to
//! the one-worker resident solve because neither has boundary rows, both
//! read every source in `0..y` fresh, both fold one worker's residual,
//! and both write fixed rows and finish terminal rows with the same
//! arithmetic. Storing `q` instead of multiplying on every edge moves no
//! bit either: `q[x][j]` is the product `p[x][j]·coef[x]` a per-edge
//! gather would form, and Rust never fuses a multiply into the add that
//! follows it.
//!
//! Everything is allocated before the first round (the streamed workers'
//! decode scratches grow during the first sweep); no round allocates
//! (pinned by `tests/alloc.rs`).

use crate::config::PageRankConfig;
use crate::error::PageRankError;
use crate::guard::ConvergenceGuard;
use crate::history::ResidualHistory;
use crate::jump::JumpSpec;
use crate::kernel;
use crate::partition::EdgePartition;
use crate::pool::{self, SharedSlice};
use crate::profiler::PoolProfiler;
use crate::PageRankResult;
use spammass_graph::{Graph, NodeId};
use spammass_obs as obs;
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The three kinds of row a solve tells apart (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowKind {
    /// No in-edges: written once, before the first sweep.
    Fixed,
    /// In-edges but `coef[y] = 0`: relaxed once, after the last sweep.
    Terminal,
    /// Relaxed by every sweep.
    Live,
}

impl RowKind {
    /// The kind of a row with `in_edges` in-edges and coefficient `w`.
    #[inline(always)]
    fn of(in_edges: usize, w: f64) -> RowKind {
        if in_edges == 0 {
            RowKind::Fixed
        } else if w == 0.0 {
            RowKind::Terminal
        } else {
            RowKind::Live
        }
    }
}

/// How many rows of each kind a solve holds, and the in-edges one sweep
/// gathers (those of its live rows); recorded on the solve's span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RowKinds {
    live: usize,
    fixed: usize,
    terminal: usize,
    gathered_edges: usize,
}

impl RowKinds {
    /// Counts one row of `kind` with `in_edges` in-edges.
    fn add(&mut self, kind: RowKind, in_edges: usize) {
        match kind {
            RowKind::Fixed => self.fixed += 1,
            RowKind::Terminal => self.terminal += 1,
            RowKind::Live => {
                self.live += 1;
                self.gathered_edges += in_edges;
            }
        }
    }

    /// Adds another worker's counts.
    fn merge(&mut self, other: RowKinds) {
        self.live += other.live;
        self.fixed += other.fixed;
        self.terminal += other.terminal;
        self.gathered_edges += other.gathered_edges;
    }

    /// Records the counts on a solve's span.
    pub(crate) fn record(&self, span: &mut obs::Span) {
        span.record("live_rows", self.live as f64);
        span.record("fixed_rows", self.fixed as f64);
        span.record("terminal_rows", self.terminal as f64);
        span.record("gathered_edges", self.gathered_edges as f64);
    }
}

/// The jump side of the row arithmetic: `(1−c)·v[y]` per column, where
/// every relaxation of row `y` starts, and the writes that need nothing
/// else — a row's seed, a fixed row, a terminal row's finish.
#[derive(Clone, Copy)]
pub(crate) struct Jumps<'a, const K: usize> {
    one_minus_c: f64,
    /// The columns' jump specs, `K` of them.
    specs: &'a [JumpSpec],
}

impl<const K: usize> Jumps<'_, K> {
    /// `(1−c)·v[y]` per column.
    #[inline(always)]
    fn at(&self, y: usize) -> [f64; K] {
        std::array::from_fn(|j| self.specs[j].at(y) * self.one_minus_c)
    }

    /// Seeds row `y` before the first sweep: its `K` slots of the iterate
    /// `p` from `initial` (`K` vectors, each `n` long) or, cold, from the
    /// jump specs themselves, and its slots `q` of the first read buffer
    /// with the contribution `p·w`, `w` being the row's `coef[y]`.
    fn seed(&self, y: usize, w: f64, initial: Option<&[Vec<f64>]>, p: &mut [f64], q: &mut [f64]) {
        for (j, (p, q)) in p.iter_mut().zip(q.iter_mut()).enumerate() {
            *p = match initial {
                Some(cols) => cols[j][y],
                None => self.specs[j].at(y),
            };
            *q = *p * w;
        }
    }

    /// Writes fixed row `y`: `p = (1−c)·v[y]` — what
    /// [`RowBody::relax`] computes for a row with no in-edges, bit for
    /// bit — and its contribution `p·w` into the row's `K` slots of both
    /// buffers.
    fn fix(&self, y: usize, w: f64, p: &mut [f64], q: [&mut [f64]; 2]) {
        let p_row = self.at(y);
        let q_row = p_row.map(|a| a * w);
        p.copy_from_slice(&p_row);
        for slots in q {
            slots.copy_from_slice(&q_row);
        }
    }

    /// Finishes terminal row `y` from the final contributions `q`:
    /// `p = (1−c)·v[y] + Σ q[x]` over `srcs`, a Jacobi gather in edge
    /// order, for every column. Its contribution stays 0.
    fn finish(&self, y: usize, q: &[f64], srcs: &[NodeId], p: &mut [f64]) {
        let mut acc = self.at(y);
        kernel::gather_row(q, &[], 0, srcs, &mut acc);
        p.copy_from_slice(&acc);
    }
}

/// The per-row arithmetic of one sweep over `K` interleaved columns.
pub(crate) struct RowBody<'a, const K: usize> {
    jumps: Jumps<'a, K>,
    /// `c/out(x)` per node.
    coef: &'a [f64],
    /// Columns still iterating this sweep; the rest are frozen.
    active: [bool; K],
}

impl<const K: usize> RowBody<'_, K> {
    /// Row `y`'s kind, from its in-edge count and its coefficient.
    #[inline(always)]
    pub(crate) fn kind(&self, y: usize, in_edges: usize) -> RowKind {
        RowKind::of(in_edges, self.coef[y])
    }

    /// Relaxes live row `y`: `(1−c)·v[y]` plus whatever `gather` adds
    /// (the row's in-edge sum, from edges or from partial sums). `p` is
    /// the row's `K` slots of the iterate, rewritten in place with
    /// `|new − old|` added to `deltas` per active column; `q` its `K` slots
    /// of the sweep's write contribution buffer, set to `p·coef[y]`. A
    /// frozen column keeps its `p` and copies its row of `stale` — the
    /// sweep's read contribution buffer — through bit-exact.
    #[inline(always)]
    pub(crate) fn relax(
        &self,
        y: usize,
        stale: &[f64],
        gather: impl FnOnce(&mut [f64; K]),
        p: &mut [f64],
        q: &mut [f64],
        deltas: &mut [f64; K],
    ) {
        let mut acc = self.jumps.at(y);
        gather(&mut acc);
        let w = self.coef[y];
        let mut p_row: [f64; K] = p[..K].try_into().expect("an iterate row is K wide");
        let mut q_row = [0.0f64; K];
        for (j, &a) in acc.iter().enumerate() {
            if self.active[j] {
                deltas[j] += (a - p_row[j]).abs();
                p_row[j] = a;
                q_row[j] = a * w;
            } else {
                q_row[j] = stale[y * K + j];
            }
        }
        // One store per row, not one per column: the next rows often read
        // this `q` row back fresh as one wide load, and a load is
        // forwarded from the store buffer only when a single store covers
        // it. On a 2-core host, 1M-host stream web, two workers, a
        // streamed sweep was faster this way in 9 of 10 alternating rounds.
        p.copy_from_slice(&p_row);
        q.copy_from_slice(&q_row);
    }
}

/// Per-column convergence state between sweeps.
struct Verdicts<const K: usize> {
    active: [bool; K],
    guards: [ConvergenceGuard; K],
    histories: [ResidualHistory; K],
    iterations: [usize; K],
    residual: [f64; K],
    /// Sweeps finished so far.
    completed: usize,
}

impl<const K: usize> Verdicts<K> {
    /// Every column active, nothing observed yet.
    fn new() -> Self {
        Verdicts {
            active: [true; K],
            guards: std::array::from_fn(|_| ConvergenceGuard::new()),
            histories: std::array::from_fn(|_| ResidualHistory::new()),
            iterations: [0; K],
            residual: [f64::INFINITY; K],
            completed: 0,
        }
    }

    /// One result per column from its final `scores`.
    fn into_results(self, columns: Vec<Vec<f64>>) -> Vec<PageRankResult> {
        columns
            .into_iter()
            .zip(self.histories)
            .enumerate()
            .map(|(j, (scores, residual_history))| {
                obs::observe("pagerank.iterations", self.iterations[j] as f64);
                PageRankResult {
                    scores,
                    iterations: self.iterations[j],
                    residual: self.residual[j],
                    converged: true,
                    residual_history,
                }
            })
            .collect()
    }

    /// Judges one finished sweep from its per-column residuals: feeds
    /// guards and histories, freezes columns below tolerance, and breaks
    /// once every column is frozen (`Ok`), a guard trips, or the shared
    /// iteration cap is hit with a column still active (`Err`).
    fn observe(
        &mut self,
        residuals: [f64; K],
        config: &PageRankConfig,
    ) -> ControlFlow<Result<(), PageRankError>> {
        self.completed += 1;
        let iterations = self.completed;
        let mut all_frozen = true;
        for (j, &residual) in residuals.iter().enumerate() {
            if !self.active[j] {
                continue;
            }
            self.residual[j] = residual;
            self.histories[j].push(residual);
            if let Err(e) = self.guards[j].observe(iterations, residual) {
                return ControlFlow::Break(Err(e));
            }
            if residual < config.tolerance {
                self.active[j] = false;
                self.iterations[j] = iterations;
            } else {
                all_frozen = false;
            }
        }
        if all_frozen {
            return ControlFlow::Break(Ok(()));
        }
        if iterations >= config.max_iterations {
            let worst =
                (0..K).filter(|&j| self.active[j]).map(|j| self.residual[j]).fold(0.0f64, f64::max);
            return ControlFlow::Break(Err(PageRankError::DidNotConverge {
                iterations,
                residual: worst,
            }));
        }
        ControlFlow::Continue(())
    }
}

/// A row source that delivers **whole rows** to
/// [`Columns::solve_whole_rows`], one range of them per pool worker.
pub(crate) trait WholeRows: Sync {
    /// Calls `visit(y, srcs)` for every row of worker `worker`'s range,
    /// in ascending order, with the row's in-edge sources in edge order.
    fn visit_rows(
        &self,
        worker: usize,
        visit: impl FnMut(usize, &[NodeId]),
    ) -> Result<(), PageRankError>;
}

/// The `K`-column controller: the iterate, its contributions, the jump
/// specs they start from, plus per-column verdicts. `p` (`n×K`,
/// interleaved row-major) is rewritten in place, each row by the worker
/// or control thread that owns it. Sweep `r` (0-based) gathers from
/// `q[r % 2]` and writes `q[(r + 1) % 2]` — each worker also reading back
/// the rows it has written there this sweep — with
/// `q[x][j] = p[x][j]·coef[x]`; frozen columns keep their `p` and copy
/// their `q` through every later sweep, so `p` always holds every
/// column's latest iterate, and after `s` sweeps `q[s % 2]` holds every
/// row's final contribution.
pub(crate) struct Columns<'a, const K: usize> {
    jumps: Jumps<'a, K>,
    p: Vec<f64>,
    q: [Vec<f64>; 2],
    verdicts: Verdicts<K>,
}

impl<'a, const K: usize> Columns<'a, K> {
    /// Allocates the iterate and both contribution buffers for `n` rows
    /// and nothing else: the row source's set-up round seeds every row
    /// ([`Jumps::seed`]) or writes it as a fixed row ([`Jumps::fix`]).
    pub(crate) fn new(specs: &'a [JumpSpec], n: usize, config: &PageRankConfig) -> Self {
        debug_assert_eq!(specs.len(), K);
        Columns {
            jumps: Jumps { one_minus_c: 1.0 - config.damping, specs },
            p: vec![0.0f64; n * K],
            q: [vec![0.0f64; n * K], vec![0.0f64; n * K]],
            verdicts: Verdicts::new(),
        }
    }

    /// Runs a cold solve to a verdict over a source that delivers **whole
    /// rows**: one pool worker per entry of `rows`, worker `w` visiting
    /// exactly the destination rows `rows[w]` each round; `coef` is
    /// `c/out(x)` per node. Round 0 seeds every row and writes the fixed
    /// rows; then each round is a sweep over the live rows; after the
    /// sweep whose verdict is convergence, one more round finishes the
    /// terminal rows from the final contribution buffer. Whole rows have
    /// no boundary pieces, so there is no merge phase; each column's
    /// residual is folded from the workers' partial sums in worker index
    /// order, which makes a fixed `rows` bit-reproducible. Returns the
    /// row counts by kind.
    ///
    /// A source error is parked in the worker's slot, the round's handoff
    /// completes, and control returns the lowest-indexed worker's error
    /// before any verdict is taken from the half-written buffers.
    ///
    /// # Panics
    /// If `rows` is empty or its ranges do not tile `0..n` in ascending
    /// order — every row is seeded by the worker that owns it, and the
    /// workers' writes rely on the ranges being disjoint.
    pub(crate) fn solve_whole_rows(
        &mut self,
        coef: &[f64],
        config: &PageRankConfig,
        rows: &[Range<usize>],
        profiler: Option<&PoolProfiler>,
        source: &impl WholeRows,
    ) -> Result<RowKinds, PageRankError> {
        let threads = rows.len();
        let n = coef.len();
        assert!(
            threads > 0
                && rows[0].start == 0
                && rows[threads - 1].end == n
                && rows.iter().all(|r| r.start <= r.end)
                && rows.windows(2).all(|pair| pair[0].end == pair[1].start),
            "worker row ranges must tile 0..{n} in ascending order: {rows:?}"
        );
        let mut chunk_deltas = vec![0.0f64; threads * K];
        let failures: Vec<Mutex<Option<PageRankError>>> =
            (0..threads).map(|_| Mutex::new(None)).collect();
        let counts: Vec<Mutex<RowKinds>> =
            (0..threads).map(|_| Mutex::new(RowKinds::default())).collect();
        // The workers' view of the verdicts' active flags; see
        // `solve_pooled`.
        let active: [AtomicBool; K] = std::array::from_fn(|_| AtomicBool::new(true));
        // Set by control once the verdict is in: the next round finishes
        // the terminal rows and ends the solve.
        let finishing = AtomicBool::new(false);

        let Columns { jumps, p, q: [even, odd], verdicts } = self;
        let p = SharedSlice::new(p);
        let q = [SharedSlice::new(even), SharedSlice::new(odd)];
        let deltas = SharedSlice::new(&mut chunk_deltas);
        let jumps = *jumps;
        let (active, failures, counts, finishing) = (&active, &failures, &counts, &finishing);

        let kernel = |round: usize, worker: usize| {
            let mine = &rows[worker];
            let first = mine.start;
            let (lo, hi) = (mine.start * K, mine.end * K);
            // SAFETY: every worker writes (and reads back) only its own
            // rows of p and of the round's write buffer — `rows` is
            // pairwise disjoint (asserted above) — and reads only the
            // round's read buffer, which no worker writes; round 0 writes
            // the worker's rows of both buffers and reads neither. The
            // pool handoff orders rounds, so no location is read while
            // another thread writes it.
            let p_rows = unsafe { p.range_mut(lo, hi) };
            let body = RowBody {
                jumps,
                coef,
                active: std::array::from_fn(|j| active[j].load(Ordering::Relaxed)),
            };
            let outcome = if round == 0 {
                let [q_even, q_odd] = [&q[0], &q[1]].map(|buf| unsafe { buf.range_mut(lo, hi) });
                let mut kinds = RowKinds::default();
                let visited = source.visit_rows(worker, |y, srcs| {
                    let kind = body.kind(y, srcs.len());
                    kinds.add(kind, srcs.len());
                    let at = (y - first) * K..(y - first + 1) * K;
                    if kind == RowKind::Fixed {
                        jumps.fix(
                            y,
                            coef[y],
                            &mut p_rows[at.clone()],
                            [&mut q_even[at.clone()], &mut q_odd[at]],
                        );
                    } else {
                        jumps.seed(y, coef[y], None, &mut p_rows[at.clone()], &mut q_even[at]);
                    }
                });
                *counts[worker].lock().expect("count slots are locked only to assign") = kinds;
                visited
            } else if finishing.load(Ordering::Relaxed) {
                // Sweep `round − 1` would read `q[(round − 1) % 2]`: the
                // buffer the last sweep wrote.
                let last = unsafe { q[(round - 1) % 2].as_slice() };
                source.visit_rows(worker, |y, srcs| {
                    if body.kind(y, srcs.len()) == RowKind::Terminal {
                        let at = (y - first) * K;
                        jumps.finish(y, last, srcs, &mut p_rows[at..at + K]);
                    }
                })
            } else {
                let sweep = round - 1;
                let stale = unsafe { q[sweep % 2].as_slice() };
                let q_rows = unsafe { q[(sweep + 1) % 2].range_mut(lo, hi) };
                let mut local_deltas = [0.0f64; K];
                let visited = source.visit_rows(worker, |y, srcs| {
                    if body.kind(y, srcs.len()) != RowKind::Live {
                        return;
                    }
                    // In place: the rows relaxed so far this sweep are
                    // read back from the write window.
                    let at = (y - first) * K;
                    let (fresh, rest) = q_rows.split_at_mut(at);
                    body.relax(
                        y,
                        stale,
                        |acc| kernel::gather_row(stale, fresh, first, srcs, acc),
                        &mut p_rows[at..at + K],
                        &mut rest[..K],
                        &mut local_deltas,
                    );
                });
                // SAFETY: slots worker·K.. are written only by this worker.
                unsafe { deltas.range_mut(worker * K, (worker + 1) * K) }
                    .copy_from_slice(&local_deltas);
                visited
            };
            if let Err(e) = outcome {
                *failures[worker].lock().expect("failure slots are locked only to assign") =
                    Some(e);
            }
        };

        let control = |round: usize| -> ControlFlow<Result<(), PageRankError>> {
            for slot in failures {
                let failed = slot.lock().expect("failure slots are locked only to assign").take();
                if let Some(e) = failed {
                    return ControlFlow::Break(Err(e));
                }
            }
            if round == 0 {
                return ControlFlow::Continue(());
            }
            if finishing.load(Ordering::Relaxed) {
                return ControlFlow::Break(Ok(()));
            }
            // SAFETY: control runs between rounds; no worker is active.
            let deltas = unsafe { deltas.as_slice() };
            let residuals: [f64; K] =
                std::array::from_fn(|j| (0..threads).map(|w| deltas[w * K + j]).sum::<f64>());
            let flow = verdicts.observe(residuals, config);
            for (flag, &on) in active.iter().zip(&verdicts.active) {
                flag.store(on, Ordering::Relaxed);
            }
            match flow {
                ControlFlow::Break(Ok(())) => {
                    finishing.store(true, Ordering::Relaxed);
                    ControlFlow::Continue(())
                }
                flow => flow,
            }
        };

        pool::run_rounds(threads, profiler, kernel, control)?;
        let mut kinds = RowKinds::default();
        for slot in counts {
            kinds.merge(*slot.lock().expect("count slots are locked only to assign"));
        }
        Ok(kinds)
    }

    /// Frees both contribution buffers once the last sweep is done; only
    /// [`into_results`](Self::into_results) may follow. The streamed solve
    /// calls this so its de-interleave phase peaks below the sweeps' own
    /// (budgeted) footprint.
    pub(crate) fn release_sweep_buffers(&mut self) {
        self.q = [Vec::new(), Vec::new()];
    }

    /// De-interleaves the final iterate into one result per column, on
    /// the calling thread.
    pub(crate) fn into_results(self) -> Vec<PageRankResult> {
        let Columns { p, verdicts, .. } = self;
        let n = p.len() / K;
        let columns: Vec<Vec<f64>> = if K == 1 {
            // Single column: the interleaved matrix *is* the score
            // vector; move it instead of copying.
            vec![p]
        } else {
            (0..K).map(|j| (0..n).map(|y| p[y * K + j]).collect()).collect()
        };
        verdicts.into_results(columns)
    }
}

/// One resident worker's row lists, as its set-up round left them: of
/// the worker's owned rows, the first `live` list slots hold its live
/// interior rows in ascending order, the last `terminal` its terminal
/// rows in descending order; `kinds` counts every owned row.
#[derive(Debug, Clone, Copy, Default)]
struct Listed {
    kinds: RowKinds,
    live: usize,
    terminal: usize,
}

/// Runs the resident edge-parallel solve for exactly `K` columns, one
/// per jump spec in `specs`, on `threads` workers. Inputs are already
/// validated by the caller (`n > 0`, every vector `n` long, config valid,
/// `threads ≥ 1`).
///
/// Every pool round but one is a sweep. Round 0 sets up: each worker,
/// over its **owned rows** — its interior, then the boundary rows up to
/// the next worker's interior, so the workers' owned rows tile `0..n` —
/// computes `coef`, seeds `p` and `q` (cold from the specs, warm from
/// `initial`), writes its fixed rows and lists its live interior rows
/// and its terminal rows in one `n`-long list shared by all workers.
/// A sweep walks the worker's live list; the round after the last sweep
/// finishes its terminal list and de-interleaves its owned rows into the
/// result columns.
///
/// Returns one result per column, in order; any column tripping its
/// convergence guard — or the shared iteration cap with any column still
/// active — fails the whole solve.
pub(crate) fn solve_pooled<const K: usize>(
    graph: &Graph,
    specs: &[JumpSpec],
    initial: Option<&[Vec<f64>]>,
    config: &PageRankConfig,
    threads: usize,
) -> Result<Vec<PageRankResult>, PageRankError> {
    let mut span = obs::span("pagerank.solve.batch");
    span.record("threads", threads as f64);
    span.record("columns", K as f64);

    let n = graph.node_count();
    let c = config.damping;
    let partition = EdgePartition::balanced(graph, threads);
    let profiler = PoolProfiler::from_live(&partition.chunk_edges(), &partition.chunk_costs(), K);
    let srcs_all = graph.in_sources();
    let offsets = graph.in_offsets();
    let out_offsets = graph.out_offsets();
    let in_row = |y: usize| &srcs_all[offsets[y] as usize..offsets[y + 1] as usize];
    let owned = |w: usize| {
        let end = if w + 1 < threads { partition.interior(w + 1).start } else { n };
        partition.interior(w).start..end
    };
    debug_assert_eq!(owned(0).start, 0, "worker 0's interior starts the rows");
    // All solve-lifetime state is allocated up front, and only allocated:
    // the set-up round fills it, and no round allocates (see
    // tests/alloc.rs).
    let mut coef = vec![0.0f64; n];
    let mut cols = Columns::<K>::new(specs, n, config);
    let mut lists = vec![0u32; n];
    let listed: Vec<Mutex<Listed>> = (0..threads).map(|_| Mutex::default()).collect();
    // The result columns, written by the finish round; one column is the
    // iterate itself.
    let mut results: Vec<Vec<f64>> =
        if K == 1 { Vec::new() } else { (0..K).map(|_| vec![0.0f64; n]).collect() };
    // Per-worker boundary-piece partial sums: slot (w·2 + s)·K holds
    // worker w's piece s (0 = head, 1 = tail), K columns wide.
    let mut partials = vec![0.0f64; threads * 2 * K];
    // Per-(worker, column) interior residual contributions, flat
    // threads×K.
    let mut chunk_deltas = vec![0.0f64; threads * K];
    // The workers' view of the verdicts' active flags. Written only by
    // control between rounds; Relaxed suffices because the pool handoff
    // orders rounds.
    let active: [AtomicBool; K] = std::array::from_fn(|_| AtomicBool::new(true));
    // Set by control once the verdict is in: the next round finishes the
    // terminal rows, de-interleaves, and ends the solve.
    let finishing = AtomicBool::new(false);
    // Pool rounds run: the sweeps, the set-up round and the finish round.
    let mut rounds = 0usize;

    let outcome: Result<(), PageRankError> = {
        let Columns { jumps, p, q: [even, odd], verdicts } = &mut cols;
        let jumps = *jumps;
        let p = SharedSlice::new(p);
        let q = [SharedSlice::new(even), SharedSlice::new(odd)];
        let coef = SharedSlice::new(&mut coef);
        let lists = SharedSlice::new(&mut lists);
        let results: Vec<SharedSlice> =
            results.iter_mut().map(|col| SharedSlice::new(col)).collect();
        let deltas = SharedSlice::new(&mut chunk_deltas);
        let partials = SharedSlice::new(&mut partials);
        let (partition, listed, active, finishing) = (&partition, &listed, &active, &finishing);

        let kernel = |round: usize, worker: usize| {
            let interior = partition.interior(worker);
            let mine = owned(worker);
            if round == 0 {
                // SAFETY: set-up writes only the worker's owned rows of
                // p, both contribution buffers, coef and the lists, and
                // reads nothing another worker writes; owned rows are
                // pairwise disjoint.
                let (lo, hi) = (mine.start * K, mine.end * K);
                let p_rows = unsafe { p.range_mut(lo, hi) };
                let [q_even, q_odd] = [&q[0], &q[1]].map(|buf| unsafe { buf.range_mut(lo, hi) });
                let coef_rows = unsafe { coef.range_mut(mine.start, mine.end) };
                let list = unsafe { lists.range_mut(mine.start, mine.end) };
                let (mut kinds, mut live, mut terminal) = (RowKinds::default(), 0, list.len());
                for (i, y) in mine.clone().enumerate() {
                    let out = out_offsets[y + 1] - out_offsets[y];
                    let w = if out == 0 { 0.0 } else { c / out as f64 };
                    coef_rows[i] = w;
                    let in_edges = (offsets[y + 1] - offsets[y]) as usize;
                    let kind = RowKind::of(in_edges, w);
                    kinds.add(kind, in_edges);
                    let at = i * K..(i + 1) * K;
                    if kind == RowKind::Fixed {
                        let q = [&mut q_even[at.clone()], &mut q_odd[at.clone()]];
                        jumps.fix(y, w, &mut p_rows[at], q);
                        continue;
                    }
                    jumps.seed(y, w, initial, &mut p_rows[at.clone()], &mut q_even[at]);
                    if kind == RowKind::Terminal {
                        terminal -= 1;
                        list[terminal] = y as u32;
                    } else if y < interior.end {
                        // A live boundary row is relaxed by control.
                        list[live] = y as u32;
                        live += 1;
                    }
                }
                let terminal = list.len() - terminal;
                *listed[worker].lock().expect("list slots are locked only to copy") =
                    Listed { kinds, live, terminal };
                return;
            }
            let rows = *listed[worker].lock().expect("list slots are locked only to copy");
            // SAFETY: after round 0 nothing writes coef or the lists.
            let list = unsafe { &lists.as_slice()[mine.clone()] };
            if finishing.load(Ordering::Relaxed) {
                // SAFETY: the finish round writes only the worker's owned
                // rows of p and of each result column, and reads the
                // buffer the last sweep wrote — `q[(round − 1) % 2]`,
                // which sweep `round − 1` would read — which no one
                // writes any more. The boundary rows it reads were
                // relaxed by control before the handoff.
                let last = unsafe { q[(round - 1) % 2].as_slice() };
                let p_rows = unsafe { p.range_mut(mine.start * K, mine.end * K) };
                for &y in list[list.len() - rows.terminal..].iter().rev() {
                    let y = y as usize;
                    let at = (y - mine.start) * K;
                    jumps.finish(y, last, in_row(y), &mut p_rows[at..at + K]);
                }
                if K > 1 {
                    let mut columns: [&mut [f64]; K] = std::array::from_fn(|j| unsafe {
                        results[j].range_mut(mine.start, mine.end)
                    });
                    for (i, row) in p_rows.chunks_exact(K).enumerate() {
                        for (column, &x) in columns.iter_mut().zip(row) {
                            column[i] = x;
                        }
                    }
                }
                return;
            }
            // SAFETY: the contribution buffers alternate roles by sweep
            // parity — every worker reads q[sweep % 2] and writes (and
            // reads back) only its own interior rows of p and of
            // q[(sweep+1) % 2] (interiors are pairwise disjoint and
            // disjoint from the boundary rows the control thread
            // relaxes); the pool handoff orders rounds, so no location is
            // read while another thread writes it.
            let sweep = round - 1;
            let stale = unsafe { q[sweep % 2].as_slice() };
            let (lo, hi) = (interior.start * K, interior.end * K);
            let p_rows = unsafe { p.range_mut(lo, hi) };
            let q_rows = unsafe { q[(sweep + 1) % 2].range_mut(lo, hi) };
            // SAFETY: slots worker·K.. and (worker·2)·K.. are written
            // only by this worker.
            let my_deltas = unsafe { deltas.range_mut(worker * K, (worker + 1) * K) };
            let my_partials = unsafe { partials.range_mut(worker * 2 * K, (worker + 1) * 2 * K) };
            // Active flags only change between rounds; snapshot them once
            // per round so the row loop branches on plain bools.
            let body = RowBody {
                jumps,
                coef: unsafe { coef.as_slice() },
                active: std::array::from_fn(|j| active[j].load(Ordering::Relaxed)),
            };
            let mut local_deltas = [0.0f64; K];
            let first = interior.start;
            for &y in &list[..rows.live] {
                let y = y as usize;
                let row_srcs = in_row(y);
                // In place: the interior rows this worker already relaxed
                // this sweep are read back from the write window.
                let at = (y - first) * K;
                let (fresh, rest) = q_rows.split_at_mut(at);
                body.relax(
                    y,
                    stale,
                    |acc| kernel::gather_row(stale, fresh, first, row_srcs, acc),
                    &mut p_rows[at..at + K],
                    &mut rest[..K],
                    &mut local_deltas,
                );
            }
            // Boundary pieces: accumulate from the read buffer into
            // private scratch; the control thread relaxes their rows
            // after the handoff. (A cut falls only inside a row with
            // out-links, so a piece's row is terminal only at c = 0.)
            for (slot, piece) in partition.pieces(worker).iter().enumerate() {
                if let Some(piece) = piece {
                    if body.kind(piece.node, piece.edges.len()) == RowKind::Live {
                        let mut acc = [0.0f64; K];
                        kernel::gather_row(stale, &[], 0, &srcs_all[piece.edges.clone()], &mut acc);
                        my_partials[slot * K..(slot + 1) * K].copy_from_slice(&acc);
                    }
                }
            }
            my_deltas.copy_from_slice(&local_deltas);
        };

        let control = |round: usize| -> ControlFlow<Result<(), PageRankError>> {
            rounds = round + 1;
            if round == 0 {
                return ControlFlow::Continue(());
            }
            if finishing.load(Ordering::Relaxed) {
                return ControlFlow::Break(Ok(()));
            }
            // SAFETY: control runs between rounds; no worker is active,
            // so it may read every scratch slot and write the boundary
            // rows of p and of the sweep's write buffer.
            let sweep = round - 1;
            let stale = unsafe { q[sweep % 2].as_slice() };
            let all_partials = unsafe { partials.as_slice() };
            let deltas = unsafe { deltas.as_slice() };

            // Boundary rows: relaxed from the pieces the workers left, in
            // fixed worker order per row so the f64 sum is deterministic.
            let merge_t0 = profiler.as_ref().map(|_| Instant::now());
            let body = RowBody { jumps, coef: unsafe { coef.as_slice() }, active: verdicts.active };
            let mut merge_deltas = [0.0f64; K];
            for entry in partition.merge_entries() {
                if body.kind(entry.node, in_row(entry.node).len()) != RowKind::Live {
                    continue;
                }
                let (lo, hi) = (entry.node * K, (entry.node + 1) * K);
                body.relax(
                    entry.node,
                    stale,
                    |acc| {
                        for &(w, slot) in &entry.parts {
                            let part = &all_partials[(w * 2 + slot) * K..(w * 2 + slot + 1) * K];
                            for (a, &sum) in acc.iter_mut().zip(part) {
                                *a += sum;
                            }
                        }
                    },
                    unsafe { p.range_mut(lo, hi) },
                    unsafe { q[(sweep + 1) % 2].range_mut(lo, hi) },
                    &mut merge_deltas,
                );
            }
            if let (Some(profiler), Some(t0)) = (profiler.as_ref(), merge_t0) {
                profiler.record_merge(t0.elapsed().as_nanos() as u64);
            }

            // Residual reduction in fixed order — worker index order,
            // then the boundary rows — so the f64 sum (and therefore
            // convergence) is independent of thread scheduling and of K.
            let residuals: [f64; K] = std::array::from_fn(|j| {
                (0..threads).map(|w| deltas[w * K + j]).sum::<f64>() + merge_deltas[j]
            });
            let flow = verdicts.observe(residuals, config);
            for (flag, &on) in active.iter().zip(&verdicts.active) {
                flag.store(on, Ordering::Relaxed);
            }
            match flow {
                ControlFlow::Break(Ok(())) => {
                    finishing.store(true, Ordering::Relaxed);
                    ControlFlow::Continue(())
                }
                flow => flow,
            }
        };

        pool::run_rounds(threads, profiler.as_ref(), kernel, control)
    };

    // Telemetry on every exit path, including guard errors.
    let mut kinds = RowKinds::default();
    for slot in &listed {
        kinds.merge(slot.lock().expect("list slots are locked only to copy").kinds);
    }
    kinds.record(&mut span);
    span.record("iterations", cols.verdicts.completed as f64);
    span.record("rounds", rounds as f64);
    outcome?;
    let Columns { p, verdicts, .. } = cols;
    if K == 1 {
        results = vec![p];
    }
    Ok(verdicts.into_results(results))
}
