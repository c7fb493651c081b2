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
//! The sweep relaxes **in place**: when a worker relaxes row `y`, an
//! in-neighbour it already relaxed earlier in the same sweep — a source
//! in `first..y`, `first` being the worker's first row — is read from the
//! write contribution buffer, every other one from the read buffer.
//! Within one worker's rows that is Gauss–Seidel; across workers it stays
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
//! * [`Columns`] owns everything that outlives a sweep — the iterate, the
//!   contribution pair, the jump specs, the per-column guards and
//!   residual histories, and the freeze / convergence / iteration-cap
//!   decision — and runs **the one loop**, [`Columns::solve`], on the
//!   persistent pool ([`crate::pool`]), one handoff per round: a set-up
//!   round, the sweeps, a finish round.
//!
//! The loop is fed by a [`WholeRows`] source: one contiguous range of
//! whole rows per worker, visited in three passes — set-up over all of a
//! worker's rows, each sweep over its live rows, the finish over its
//! terminal rows. There are two sources, and neither cuts inside a row,
//! so no row is ever combined from pieces:
//!
//! * the **resident** in-CSR (`crate::batch`), cut into ranges of about
//!   equal gather cost ([`crate::partition`]). Its set-up pass works out
//!   each row's `coef` and lists the worker's live and terminal rows;
//!   the sweeps and the finish walk those lists. A sweep then reads per
//!   live row the list entry (4 bytes), the row's two in-offsets (at most
//!   8, and never more than the `4(n+1)` of the whole array), `8(4K+1)`
//!   of node vectors — `p` read and written back, the stale `q` read, the
//!   fresh `q` written, `coef` read — and its in-edges, 4 bytes each, plus
//!   one bit per node for each core or single-node column; beyond that,
//!   each gathered edge's one random read lands in `q`. For `n_l` live
//!   rows holding `m_g` in-edges that is `12n_l + 4m_g + 8n_l(4K+1)`
//!   bytes; a fixed or terminal row costs a sweep nothing;
//! * the **streamed** compressed image (`crate::stream`), its in-blocks
//!   cut into one range per worker. Every pass decodes the worker's
//!   blocks and picks the rows of the pass's kind by in-edge count and
//!   `coef`, which the caller worked out from the out-blocks beforehand,
//!   so a sweep also reads the `4(n+1)` offsets and the `8n` of `coef`.
//!
//! After the finish round the contribution buffers are freed and the
//! iterate is de-interleaved into one result per column, on the calling
//! thread.
//!
//! Determinism: for a fixed `(source rows, threads)` which reads are
//! fresh, the per-row accumulation order and the residual reduction
//! order (worker index order) are all fixed, so results are bit-for-bit
//! reproducible across runs; a column is bit-identical whatever `K` it is
//! solved under because the gather kernel's edge→bank assignment ignores
//! `K` and a column's fresh reads are its own; the two sources give the
//! same bits whenever their workers own the same rows — one worker
//! always, and any worker count when the resident source is handed the
//! streamed one's ranges — because the loop, the row arithmetic and the
//! coefficients are the same; and across worker counts scores agree to
//! rounding (≤ 1e-12 at the default tolerance), because the workers'
//! first rows move. Storing `q` instead of multiplying on every edge
//! moves no bit either: `q[x][j]` is the product `p[x][j]·coef[x]` a
//! per-edge gather would form, and Rust never fuses a multiply into the
//! add that follows it.
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
use crate::pool::{self, SharedSlice};
use crate::profiler::PoolProfiler;
use crate::PageRankResult;
use spammass_graph::NodeId;
use spammass_obs as obs;
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

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
    pub(crate) fn of(in_edges: usize, w: f64) -> RowKind {
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
    /// Relaxes live row `y`: `(1−c)·v[y]` plus what `gather` adds, the
    /// row's in-edge sum. `p` is
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

/// A row source that delivers **whole rows** to [`Columns::solve`], one
/// range of them per pool worker, in three passes: set-up over all of a
/// worker's rows, then per sweep its live rows, then once its terminal
/// rows.
pub(crate) trait WholeRows: Sync {
    /// The rows each pool worker owns, in worker order.
    fn rows(&self) -> &[Range<usize>];

    /// The set-up pass: calls `visit(y, srcs, w)` for every row `y` of
    /// worker `worker`'s range in ascending order, with the row's in-edge
    /// sources in edge order and its coefficient `w`; `visit` returns the
    /// row's kind. `coef` is the worker's window of the coefficient
    /// vector: a source that works the coefficients out writes them here,
    /// one that was handed them reads them.
    fn set_up(
        &self,
        worker: usize,
        coef: &mut [f64],
        visit: impl FnMut(usize, &[NodeId], f64) -> RowKind,
    ) -> Result<(), PageRankError>;

    /// Calls `visit(y, srcs)` for every row of worker `worker`'s range
    /// whose kind is `kind` — [`RowKind::Live`] for a sweep, in ascending
    /// order, or [`RowKind::Terminal`] for the finish — with `coef` the
    /// whole coefficient vector.
    fn rows_of_kind(
        &self,
        worker: usize,
        kind: RowKind,
        coef: &[f64],
        visit: impl FnMut(usize, &[NodeId]),
    ) -> Result<(), PageRankError>;
}

/// The `K`-column controller: the iterate, its contributions, the jump
/// specs they start from, plus per-column verdicts. `p` (`n×K`,
/// interleaved row-major) is rewritten in place, each row by the worker
/// that owns it. Sweep `r` (0-based) gathers from `q[r % 2]` and writes
/// `q[(r + 1) % 2]` — each worker also reading back the rows it has
/// written there this sweep — with `q[x][j] = p[x][j]·coef[x]`; frozen
/// columns keep their `p` and copy their `q` through every later sweep,
/// so `p` always holds every column's latest iterate, and after `s`
/// sweeps `q[s % 2]` holds every row's final contribution.
pub(crate) struct Columns<'a, const K: usize> {
    jumps: Jumps<'a, K>,
    p: Vec<f64>,
    q: [Vec<f64>; 2],
    verdicts: Verdicts<K>,
    /// Rows by kind, as the set-up round counted them.
    kinds: RowKinds,
    /// Pool rounds run: the sweeps, the set-up round and the finish round.
    rounds: usize,
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
            kinds: RowKinds::default(),
            rounds: 0,
        }
    }

    /// Runs a solve to a verdict over `source`, one pool worker per entry
    /// of `source.rows()`. Round 0 sets up: each worker, over its own
    /// rows, has the source fill its window of `coef` (`c/out(x)` per
    /// node) if the source works it out, seeds every row — from
    /// `initial` (`K` vectors, each `n` long) when given, else from the
    /// jump specs — and writes the fixed rows. Then each round is a sweep
    /// over the live rows; after the sweep whose verdict is convergence,
    /// one more round finishes the terminal rows from the final
    /// contribution buffer. Each column's residual is folded from the
    /// workers' partial sums in worker index order, which makes a fixed
    /// `source.rows()` bit-reproducible.
    ///
    /// A source error is parked in the worker's slot, the round's handoff
    /// completes, and control returns the lowest-indexed worker's error
    /// before any verdict is taken from the half-written buffers.
    ///
    /// # Panics
    /// If the source's ranges are empty or do not tile `0..n` in
    /// ascending order — every row is seeded by the worker that owns it,
    /// and the workers' writes rely on the ranges being disjoint.
    pub(crate) fn solve(
        &mut self,
        coef: &mut [f64],
        initial: Option<&[Vec<f64>]>,
        config: &PageRankConfig,
        profiler: Option<&PoolProfiler>,
        source: &impl WholeRows,
    ) -> Result<(), PageRankError> {
        let rows = source.rows();
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
        // Per-(worker, column) residual contributions, flat threads×K.
        let mut chunk_deltas = vec![0.0f64; threads * K];
        let failures: Vec<Mutex<Option<PageRankError>>> =
            (0..threads).map(|_| Mutex::new(None)).collect();
        let counts: Vec<Mutex<RowKinds>> =
            (0..threads).map(|_| Mutex::new(RowKinds::default())).collect();
        // The workers' view of the verdicts' active flags. Written only by
        // control between rounds; Relaxed suffices because the pool
        // handoff orders rounds.
        let active: [AtomicBool; K] = std::array::from_fn(|_| AtomicBool::new(true));
        // Set by control once the verdict is in: the next round finishes
        // the terminal rows and ends the solve.
        let finishing = AtomicBool::new(false);
        let mut rounds = 0usize;

        let outcome = {
            let Columns { jumps, p, q: [even, odd], verdicts, .. } = &mut *self;
            let p = SharedSlice::new(p);
            let q = [SharedSlice::new(even), SharedSlice::new(odd)];
            let coef = SharedSlice::new(coef);
            let deltas = SharedSlice::new(&mut chunk_deltas);
            let jumps = *jumps;
            let (active, failures, counts, finishing) = (&active, &failures, &counts, &finishing);

            let kernel = |round: usize, worker: usize| {
                let mine = &rows[worker];
                let first = mine.start;
                let (lo, hi) = (mine.start * K, mine.end * K);
                // SAFETY: every worker writes (and reads back) only its
                // own rows of p, of coef and of the round's write buffer —
                // the ranges are pairwise disjoint (asserted above) — and
                // reads only the round's read buffer, which no worker
                // writes; round 0 writes the worker's rows of both buffers
                // and of coef and reads neither buffer, and nothing writes
                // coef after it. The pool handoff orders rounds, so no
                // location is read while another thread writes it.
                let p_rows = unsafe { p.range_mut(lo, hi) };
                let outcome = if round == 0 {
                    let [q_even, q_odd] =
                        [&q[0], &q[1]].map(|buf| unsafe { buf.range_mut(lo, hi) });
                    let coef_rows = unsafe { coef.range_mut(mine.start, mine.end) };
                    let mut kinds = RowKinds::default();
                    let set_up = source.set_up(worker, coef_rows, |y, srcs, w| {
                        let kind = RowKind::of(srcs.len(), w);
                        kinds.add(kind, srcs.len());
                        let at = (y - first) * K..(y - first + 1) * K;
                        if kind == RowKind::Fixed {
                            let q = [&mut q_even[at.clone()], &mut q_odd[at.clone()]];
                            jumps.fix(y, w, &mut p_rows[at], q);
                        } else {
                            jumps.seed(y, w, initial, &mut p_rows[at.clone()], &mut q_even[at]);
                        }
                        kind
                    });
                    *counts[worker].lock().expect("count slots are locked only to assign") = kinds;
                    set_up
                } else if finishing.load(Ordering::Relaxed) {
                    // Sweep `round − 1` would read `q[(round − 1) % 2]`:
                    // the buffer the last sweep wrote.
                    let last = unsafe { q[(round - 1) % 2].as_slice() };
                    let coef = unsafe { coef.as_slice() };
                    source.rows_of_kind(worker, RowKind::Terminal, coef, |y, srcs| {
                        let at = (y - first) * K;
                        jumps.finish(y, last, srcs, &mut p_rows[at..at + K]);
                    })
                } else {
                    let sweep = round - 1;
                    let stale = unsafe { q[sweep % 2].as_slice() };
                    let q_rows = unsafe { q[(sweep + 1) % 2].range_mut(lo, hi) };
                    // Active flags only change between rounds; snapshot
                    // them once per round so the row loop branches on
                    // plain bools.
                    let body = RowBody {
                        jumps,
                        coef: unsafe { coef.as_slice() },
                        active: std::array::from_fn(|j| active[j].load(Ordering::Relaxed)),
                    };
                    let mut local_deltas = [0.0f64; K];
                    let swept = source.rows_of_kind(worker, RowKind::Live, body.coef, |y, srcs| {
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
                    // SAFETY: slots worker·K.. are written only by this
                    // worker.
                    unsafe { deltas.range_mut(worker * K, (worker + 1) * K) }
                        .copy_from_slice(&local_deltas);
                    swept
                };
                if let Err(e) = outcome {
                    *failures[worker].lock().expect("failure slots are locked only to assign") =
                        Some(e);
                }
            };

            let control = |round: usize| -> ControlFlow<Result<(), PageRankError>> {
                rounds = round + 1;
                for slot in failures {
                    let failed =
                        slot.lock().expect("failure slots are locked only to assign").take();
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
                // Residual reduction in worker index order, so the f64 sum
                // (and therefore convergence) is independent of thread
                // scheduling and of K. SAFETY: control runs between
                // rounds; no worker is active.
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

            pool::run_rounds(threads, profiler, kernel, control)
        };
        self.rounds = rounds;
        for slot in counts {
            self.kinds.merge(slot.into_inner().expect("count slots are locked only to assign"));
        }
        outcome
    }

    /// The rows by kind, as the last solve's set-up round counted them.
    pub(crate) fn kinds(&self) -> RowKinds {
        self.kinds
    }

    /// Records the rows by kind, the sweeps and the pool rounds on a
    /// solve's span — on every exit path, guard errors included.
    pub(crate) fn record(&self, span: &mut obs::Span) {
        self.kinds.record(span);
        span.record("iterations", self.verdicts.completed as f64);
        span.record("rounds", self.rounds as f64);
    }

    /// Frees both contribution buffers, then de-interleaves the final
    /// iterate into one result per column on the calling thread: the step
    /// peaks below the sweeps' own footprint, which keeps the streamed
    /// solve inside its budget.
    pub(crate) fn into_results(self) -> Vec<PageRankResult> {
        let Columns { p, q, verdicts, .. } = self;
        drop(q);
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

/// Runs a cold solve over `source`: how the tests hand the loop a row
/// source, or a cut, of their own.
#[cfg(test)]
pub(crate) fn solve_cold<const K: usize>(
    specs: &[JumpSpec],
    config: &PageRankConfig,
    source: &impl WholeRows,
) -> Result<Vec<PageRankResult>, PageRankError> {
    let n = source.rows().last().map_or(0, |r| r.end);
    let mut coef = vec![0.0f64; n];
    let mut cols = Columns::<K>::new(specs, n, config);
    cols.solve(&mut coef, None, config, None, source)?;
    Ok(cols.into_results())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::CsrRows;
    use crate::jump::JumpVector;
    use spammass_graph::{Graph, GraphBuilder};

    /// Rows of all three kinds: 0 ⇄ 1 and 5 → 6 → 7 → 5 are live, fed by
    /// 1; 2 (linked from 0 and 1) is terminal; 3 (→ 0) and 4 are fixed.
    fn three_kinds() -> Graph {
        let edges = [(0, 1), (1, 0), (0, 2), (1, 2), (3, 0), (1, 5), (5, 6), (6, 7), (7, 5)];
        GraphBuilder::from_edges(8, &edges)
    }

    fn specs(n: usize) -> Vec<JumpSpec> {
        let core = JumpVector::core(vec![NodeId(0), NodeId(6)], n);
        [JumpVector::Uniform, core].iter().map(|j| j.spec(n).unwrap()).collect()
    }

    /// Delegates to the resident source, logging every row each pass
    /// visits (`None` for set-up), and fails the set-up of `failing`.
    struct Logged<'a> {
        inner: CsrRows<'a>,
        visits: Mutex<Vec<(Option<RowKind>, usize)>>,
        failing: Vec<usize>,
    }

    impl WholeRows for Logged<'_> {
        fn rows(&self) -> &[Range<usize>] {
            self.inner.rows()
        }

        fn set_up(
            &self,
            worker: usize,
            coef: &mut [f64],
            mut visit: impl FnMut(usize, &[NodeId], f64) -> RowKind,
        ) -> Result<(), PageRankError> {
            if self.failing.contains(&worker) {
                return Err(PageRankError::EdgeSource(format!("worker {worker}")));
            }
            self.inner.set_up(worker, coef, |y, srcs, w| {
                self.visits.lock().unwrap().push((None, y));
                visit(y, srcs, w)
            })
        }

        fn rows_of_kind(
            &self,
            worker: usize,
            kind: RowKind,
            coef: &[f64],
            mut visit: impl FnMut(usize, &[NodeId]),
        ) -> Result<(), PageRankError> {
            self.inner.rows_of_kind(worker, kind, coef, |y, srcs| {
                self.visits.lock().unwrap().push((Some(kind), y));
                visit(y, srcs)
            })
        }
    }

    fn logged(g: &Graph, rows: Vec<Range<usize>>, failing: Vec<usize>) -> Logged<'_> {
        Logged { inner: CsrRows::new(g, 0.85, rows), visits: Mutex::default(), failing }
    }

    #[test]
    fn row_kind_tells_the_three_kinds_apart() {
        assert_eq!(RowKind::of(0, 0.0), RowKind::Fixed);
        assert_eq!(RowKind::of(0, 0.425), RowKind::Fixed);
        assert_eq!(RowKind::of(3, 0.0), RowKind::Terminal);
        assert_eq!(RowKind::of(1, 0.85), RowKind::Live);
    }

    #[test]
    fn set_up_visits_every_row_once_sweeps_the_live_rows_and_finishes_the_terminal_ones() {
        let g = three_kinds();
        let source = logged(&g, vec![0..3, 3..8], vec![]);
        let results = solve_cold::<2>(&specs(8), &PageRankConfig::default(), &source).unwrap();
        let sweeps = results.iter().map(|r| r.iterations).max().unwrap();
        let visits = source.visits.into_inner().unwrap();
        let count = |pass, y| visits.iter().filter(|&&v| v == (pass, y)).count();
        for y in 0..8 {
            // Live and terminal rows, by the graph; the rest are fixed.
            let (live, terminal) = match y {
                0 | 1 | 5 | 6 | 7 => (sweeps, 0),
                2 => (0, 1),
                _ => (0, 0),
            };
            assert_eq!(count(None, y), 1, "row {y} is set up once");
            assert_eq!(count(Some(RowKind::Live), y), live, "row {y} in the sweeps");
            assert_eq!(count(Some(RowKind::Terminal), y), terminal, "row {y} in the finish");
        }
    }

    #[test]
    fn the_lowest_indexed_workers_error_ends_the_solve() {
        let g = three_kinds();
        let source = logged(&g, vec![0..2, 2..5, 5..8], vec![1, 2]);
        match solve_cold::<2>(&specs(8), &PageRankConfig::default(), &source) {
            Err(PageRankError::EdgeSource(what)) => assert_eq!(what, "worker 1"),
            other => panic!("expected worker 1's error, got {other:?}"),
        }
        // Worker 0 set its rows up, and no sweep followed.
        assert_eq!(source.visits.into_inner().unwrap(), [(None, 0), (None, 1)]);
    }

    #[test]
    #[should_panic(expected = "must tile")]
    fn ranges_that_do_not_tile_the_rows_are_refused() {
        // Row 4 belongs to no worker.
        let g = three_kinds();
        let _ = solve_cold::<1>(
            &specs(8)[..1],
            &PageRankConfig::default(),
            &logged(&g, vec![0..4, 5..8], vec![]),
        );
    }

    #[test]
    fn a_column_has_the_same_bits_alone_or_fused() {
        let g = three_kinds();
        let config = PageRankConfig::default();
        let rows = vec![0..2, 2..6, 6..8];
        let source = CsrRows::new(&g, config.damping, rows);
        let fused = solve_cold::<2>(&specs(8), &config, &source).unwrap();
        for (j, spec) in specs(8).iter().enumerate() {
            let alone = solve_cold::<1>(std::slice::from_ref(spec), &config, &source).unwrap();
            let bits = |r: &PageRankResult| {
                let scores: Vec<u64> = r.scores.iter().map(|x| x.to_bits()).collect();
                (scores, r.iterations, r.residual.to_bits())
            };
            assert_eq!(bits(&alone[0]), bits(&fused[j]), "column {j}");
        }
    }
}
