//! Blocked out-of-core PageRank: the engine's in-place sweep over a
//! compressed image larger than RAM.
//!
//! The resident working set is only what the iteration mathematically
//! needs: the iterate and its two contribution buffers (`3·n·K` f64), the
//! per-node damping coefficients (`n` f64), each column's jump spec (a
//! bitset of `n/8` bytes for a core or a single node, `8n` bytes for a
//! custom vector, nothing for the uniform jump), and one decoded block's
//! scratch CSR **per worker**. The edge structure itself never
//! materializes — the image's in-blocks are cut into one contiguous,
//! cost-balanced range per pool worker, and each sweep every worker
//! streams its own blocks, decoding block-at-a-time into its own
//! reusable [`BlockScratch`] and handing the decoded rows to the
//! engine's one loop ([`crate::engine`]), which owns the matrices, the
//! pool handoff, the convergence decision and the result — the loop the
//! resident source runs too. Blocks hold whole rows. Each worker decodes
//! its blocks twice more per solve: once before the sweeps, to seed its
//! rows and write the rows without in-edges, which no sweep relaxes, and
//! once after them, to finish the rows without out-links, which no sweep
//! relaxes either (`crate::engine`'s row kinds).
//!
//! ## Exactness
//!
//! A streamed sweep runs every row through the same row body, gather
//! kernel, jump specs and coefficient values as the resident engine, in
//! place over each worker's block range: a row reads a source fresh when
//! the same worker relaxed it earlier in the sweep (a source in
//! `first..y`), so the streamed solver is not an approximation, just a
//! different row source. **With one worker, scores, iteration counts and
//! residuals are bit-identical to the one-worker resident solve** — both
//! read every source below the row fresh, write the same fixed rows and
//! finish the same terminal rows from the same final contributions. With
//! more, where each worker's range starts decides which reads are fresh,
//! and each column's residual is folded from the workers' partial sums
//! in worker index order: a fixed `(image, workers)` is bit-reproducible
//! — and so is the resident source handed the same row ranges — and
//! across worker counts, and against a resident solve cut elsewhere,
//! scores agree to rounding (≤ 1e-12 per node at the default tolerance)
//! with an identical flagged set.
//! `tests/properties.rs` and `crates/core/tests/stream_parity.rs` pin the
//! claims.
//!
//! ## Budget
//!
//! Callers pass an explicit byte budget (the CLI's
//! `--max-resident-mb`). The solve computes its worst-case resident
//! footprint up front ([`resident_bytes_needed`]:
//! `24·n·K + 8·n + Σ spec bytes + 8·n·S + 4 KiB · k + workers ·
//! scratch + 40 · blocks` for `k` columns, the widest chunk of `K ≤ 4` of
//! them, the `S` whose scores earlier chunks hold, and a residual history
//! each), gives up workers (one block scratch
//! each) until it fits, and refuses with [`PageRankError::ResidentBudget`]
//! when even one worker does not — an out-of-core path that silently
//! allocates past its contract is worse than none.

use crate::batch::{empty_results, MAX_FUSED_COLUMNS};
use crate::config::PageRankConfig;
use crate::engine::{Columns, RowKind, RowKinds, WholeRows};
use crate::error::PageRankError;
use crate::history::ResidualHistory;
use crate::jump::{JumpSpec, JumpVector};
use crate::parallel::PoolSizing;
use crate::profiler::PoolProfiler;
use crate::PageRankResult;
use spammass_graph::compress::{BlockScratch, CompressedImage, Orientation};
use spammass_graph::NodeId;
use spammass_obs as obs;
use std::ops::Range;
use std::sync::Mutex;

/// Bytes the streamed solve keeps resident for `n` nodes, the columns
/// `jumps`, `workers` pool workers, and an image whose largest block
/// decodes to `(max_rows, max_edges)`: the iterate and its two
/// contribution buffers for the widest chunk, the coefficient vector,
/// every column's jump spec and residual history, the score vectors of
/// the chunks solved before the last, one block scratch per worker, and
/// the per-block index bookkeeping.
pub fn resident_bytes_needed(
    n: usize,
    jumps: &[JumpVector],
    max_rows: usize,
    max_edges: usize,
    blocks: usize,
    workers: usize,
) -> u64 {
    let k_chunk = jumps.len().clamp(1, MAX_FUSED_COLUMNS);
    let score_matrices = 3 * (n as u64) * (k_chunk as u64) * 8; // p + two q
    let coef = n as u64 * 8;
    let specs: u64 = jumps.iter().map(|jump| jump.spec_bytes(n)).sum();
    let solved_columns = jumps.len().saturating_sub(1) / MAX_FUSED_COLUMNS * MAX_FUSED_COLUMNS;
    let results = solved_columns as u64 * n as u64 * 8
        + jumps.len() as u64 * ResidualHistory::DEFAULT_BYTES as u64;
    let scratch = workers as u64 * BlockScratch::bytes_for(max_rows, max_edges) as u64;
    let index = blocks as u64 * 40; // entry + first-row + verified bit, rounded up
    score_matrices + coef + specs + results + scratch + index
}

/// Checks the budget and sizes the pool for the columns `jumps` over
/// `image`:
/// [`PageRankConfig::threads`] through the resident sizing rule, further
/// capped by the in-block count — a worker owns whole blocks — and by
/// how many block scratches the budget affords beside the matrices.
fn size_pool(
    image: &CompressedImage,
    jumps: &[JumpVector],
    config: &PageRankConfig,
    max_resident_bytes: u64,
) -> Result<PoolSizing, PageRankError> {
    let (max_rows, max_edges) = image.max_block_dims();
    let in_blocks = image.block_count(Orientation::In);
    let blocks = image.block_count(Orientation::Out) + in_blocks;
    let required = resident_bytes_needed(image.node_count(), jumps, max_rows, max_edges, blocks, 1);
    if required > max_resident_bytes {
        return Err(PageRankError::ResidentBudget { required, budget: max_resident_bytes });
    }
    // Every worker beyond the first costs one more scratch.
    let spare =
        (max_resident_bytes - required) / BlockScratch::bytes_for(max_rows, max_edges) as u64;
    let affordable = usize::try_from(spare).map_or(usize::MAX, |s| s.saturating_add(1));
    let edges = usize::try_from(image.edge_count()).unwrap_or(usize::MAX);
    let caps = [("block_count", in_blocks), ("budget", affordable)];
    Ok(PoolSizing::new(config, image.node_count(), edges, &caps))
}

/// The worker count [`solve_batch_streamed`] resolves to for `jumps` over
/// `image` under `config` and the byte budget — what a front end prints
/// beside the budget.
///
/// # Errors
/// [`PageRankError::ResidentBudget`] when not even one worker fits.
pub fn streamed_workers(
    image: &CompressedImage,
    jumps: &[JumpVector],
    config: &PageRankConfig,
    max_resident_bytes: u64,
) -> Result<usize, PageRankError> {
    size_pool(image, jumps, config, max_resident_bytes).map(|sizing| sizing.threads)
}

/// Solves `(I − c·Tᵀ)pⱼ = (1 − c)vⱼ` for every jump vector in `jumps`
/// by streaming the compressed image's in-blocks through the engine's
/// sweep — the out-of-core counterpart of
/// [`crate::batch::solve_batch`], on the same worker pool (sized by
/// [`streamed_workers`]). A fixed worker count is bit-reproducible,
/// other counts agree to rounding; with one worker the result is
/// bit-identical to the resident one-worker solve.
///
/// `max_resident_bytes` bounds the solve's own working set (scores,
/// coefficients, jump specs, block scratches — not the mmap'd image,
/// which the OS pages in and out freely).
///
/// # Errors
/// [`PageRankError::ResidentBudget`] when the working set cannot fit
/// even with one worker; otherwise the same contract as
/// [`crate::batch::solve_batch`] (validation, guard trips, the iteration
/// cap). A block that fails to decode — block checksums are verified
/// lazily at first decode, so this is where a damaged payload, a file
/// changed under the mmap, or a failing medium surfaces — is
/// [`PageRankError::EdgeSource`], whichever worker meets it.
pub fn solve_batch_streamed(
    image: &CompressedImage,
    jumps: &[JumpVector],
    config: &PageRankConfig,
    max_resident_bytes: u64,
) -> Result<Vec<PageRankResult>, PageRankError> {
    config.validate()?;
    let n = image.node_count();
    let k = jumps.len();
    let specs = jumps.iter().map(|jump| jump.spec(n)).collect::<Result<Vec<_>, _>>()?;
    if k == 0 || n == 0 {
        return Ok(empty_results(k));
    }

    let sizing = size_pool(image, jumps, config, max_resident_bytes)?;
    let workers = sizing.threads;
    sizing.record("streamed");
    let source = BlockSource::new(image, workers);
    let in_blocks = image.block_count(Orientation::In);

    let mut span = obs::span("pagerank.solve.streamed");
    span.record("columns", k as f64);
    span.record("nodes", n as f64);
    span.record("workers", workers as f64);
    span.record("resident_budget_bytes", max_resident_bytes as f64);
    let encoded_before = image.encoded_bytes_read();

    // One streaming pass over the out-blocks builds the damping
    // coefficients — the only out-orientation state a sweep needs.
    let c = config.damping;
    let mut coef = vec![0.0f64; n];
    {
        let mut scratch = source.scratch(0);
        for idx in 0..image.block_count(Orientation::Out) {
            image.decode_block(Orientation::Out, idx, &mut scratch).map_err(edge_source)?;
            for i in 0..scratch.rows {
                let d = (scratch.offsets[i + 1] - scratch.offsets[i]) as f64;
                if d > 0.0 {
                    coef[scratch.first_row + i] = c / d;
                }
            }
        }
    }

    let mut results = Vec::with_capacity(k);
    let mut passes = 0usize;
    let mut kinds = RowKinds::default();
    for chunk in specs.chunks(MAX_FUSED_COLUMNS) {
        let (solved, chunk_kinds) = match chunk.len() {
            1 => sweep_blocks::<1>(&source, &mut coef, chunk, config)?,
            2 => sweep_blocks::<2>(&source, &mut coef, chunk, config)?,
            3 => sweep_blocks::<3>(&source, &mut coef, chunk, config)?,
            _ => sweep_blocks::<4>(&source, &mut coef, chunk, config)?,
        };
        // Every chunk sorts the same rows the same way.
        kinds = chunk_kinds;
        // A chunk sweeps until its last column freezes, and decodes its
        // blocks once more before the sweeps and once after them.
        passes += solved.iter().map(|r| r.iterations).max().unwrap_or(0) + 2;
        results.extend(solved);
    }

    kinds.record(&mut span);
    let blocks_decoded = (passes * in_blocks) as u64;
    let decoded_bytes = image.encoded_bytes_read() - encoded_before;
    span.record("blocks_decoded", blocks_decoded as f64);
    span.record("decoded_bytes", decoded_bytes as f64);
    obs::counter(obs::names::ESTIMATE_IO_BLOCKS_DECODED, blocks_decoded as f64);
    obs::counter(obs::names::ESTIMATE_IO_DECODED_BYTES, decoded_bytes as f64);
    Ok(results)
}

/// Converts a block-decode failure into the solver's error domain.
fn edge_source(e: spammass_graph::GraphError) -> PageRankError {
    PageRankError::EdgeSource(e.to_string())
}

/// The image's in-blocks as the engine's whole-row source: one
/// contiguous range of blocks per worker, the destination rows and edges
/// each range covers, and one decode scratch per worker.
struct BlockSource<'a> {
    image: &'a CompressedImage,
    blocks: Vec<Range<usize>>,
    rows: Vec<Range<usize>>,
    edges: Vec<usize>,
    scratches: Vec<ScratchSlot>,
}

/// One worker's scratch on cache lines of its own. A decode rewrites the
/// scratch's lengths and row window for every row, so two slots packed
/// into one allocation (96 bytes each) share the line at their boundary
/// and the workers steal it from each other all sweep — how badly
/// depends on where the allocator put the pair. Measured on the 1M-host
/// bench web, two workers, by the allocation's offset in its line:
/// 3.8 s a solve at 0, 3.4 s at 16, 2.6 s at 32 and 48, and 2.6 s with
/// the slots apart. 128 covers the adjacent-line prefetch pair.
#[derive(Default)]
#[repr(align(128))]
struct ScratchSlot(Mutex<BlockScratch>);

impl<'a> BlockSource<'a> {
    /// Cuts the image's in-blocks into `workers` (`1..=` in-block count)
    /// contiguous ranges of about equal cost, all of it from the index:
    /// a block costs its edges, its rows and four times its encoded
    /// bytes. Most edges sit in runs — decoded as one range, gathered
    /// from consecutive scores — so the bytes count what is expensive:
    /// residuals, decoded one varint at a time and gathered from
    /// scattered sources. (Measured on the 1M-host bench web: weights 4
    /// to 8 put the two workers within 5 % of each other, weight 1 leaves
    /// the hub-row end 25 % heavier.) A range ends at the block whose
    /// midpoint crosses the worker's share, but always holds at least one
    /// block and leaves one for every later worker.
    fn new(image: &'a CompressedImage, workers: usize) -> BlockSource<'a> {
        let count = image.block_count(Orientation::In);
        let dims: Vec<(usize, usize, usize)> =
            (0..count).map(|idx| image.block_dims(Orientation::In, idx)).collect();
        let cost = |idx: usize| {
            let (rows, edges, encoded) = dims[idx];
            (rows + edges + 4 * encoded) as u64
        };
        let total: u64 = (0..count).map(cost).sum();
        let mut source = BlockSource {
            image,
            blocks: Vec::with_capacity(workers),
            rows: Vec::with_capacity(workers),
            edges: Vec::with_capacity(workers),
            // Grown on demand: after the first sweep each holds its
            // largest block and the sweeps allocate nothing.
            scratches: (0..workers).map(|_| ScratchSlot::default()).collect(),
        };
        let (mut start, mut spent) = (0usize, 0u64);
        for w in 1..=workers {
            let share = (total as u128 * w as u128 / workers as u128) as u64;
            let last_start = count - (workers - w);
            let mut end = start;
            while end < last_start && (end == start || spent + cost(end) / 2 <= share) {
                spent += cost(end);
                end += 1;
            }
            let first_row = image.block_rows(Orientation::In, start).start;
            let end_row = image.block_rows(Orientation::In, end - 1).end;
            source.rows.push(first_row..end_row);
            source.edges.push(dims[start..end].iter().map(|&(_, edges, _)| edges).sum());
            source.blocks.push(start..end);
            start = end;
        }
        source
    }

    /// Worker `w`'s scratch. Each is locked by one thread at a time (the
    /// coefficient pass, then its own worker once per sweep), so the
    /// lock never waits.
    fn scratch(&self, w: usize) -> std::sync::MutexGuard<'_, BlockScratch> {
        self.scratches[w].0.lock().expect("a block scratch is only locked by its own worker")
    }
}

impl BlockSource<'_> {
    /// Decodes worker `worker`'s blocks one at a time into its scratch
    /// and hands every row of each to `visit`.
    fn decode_rows(
        &self,
        worker: usize,
        mut visit: impl FnMut(usize, &[NodeId]),
    ) -> Result<(), PageRankError> {
        let mut scratch = self.scratch(worker);
        for idx in self.blocks[worker].clone() {
            self.image.decode_block(Orientation::In, idx, &mut scratch).map_err(edge_source)?;
            for i in 0..scratch.rows {
                visit(scratch.first_row + i, scratch.row(i));
            }
        }
        Ok(())
    }
}

impl WholeRows for BlockSource<'_> {
    fn rows(&self) -> &[Range<usize>] {
        &self.rows
    }

    /// Decodes the worker's blocks and visits every row with the
    /// coefficient the caller worked out beforehand.
    fn set_up(
        &self,
        worker: usize,
        coef: &mut [f64],
        mut visit: impl FnMut(usize, &[NodeId], f64) -> RowKind,
    ) -> Result<(), PageRankError> {
        let first = self.rows[worker].start;
        self.decode_rows(worker, |y, srcs| {
            visit(y, srcs, coef[y - first]);
        })
    }

    /// Decodes the worker's blocks and visits the rows of `kind`.
    fn rows_of_kind(
        &self,
        worker: usize,
        kind: RowKind,
        coef: &[f64],
        mut visit: impl FnMut(usize, &[NodeId]),
    ) -> Result<(), PageRankError> {
        self.decode_rows(worker, |y, srcs| {
            if RowKind::of(srcs.len(), coef[y]) == kind {
                visit(y, srcs);
            }
        })
    }
}

/// One `K`-column streamed solve: the engine's rounds with each worker's
/// rows delivered block-at-a-time from its own range of in-blocks — the
/// set-up round, the sweeps, and the finish round.
fn sweep_blocks<const K: usize>(
    source: &BlockSource<'_>,
    coef: &mut [f64],
    specs: &[JumpSpec],
    config: &PageRankConfig,
) -> Result<(Vec<PageRankResult>, RowKinds), PageRankError> {
    let mut cols = Columns::<K>::new(specs, coef.len(), config);
    let profiler = PoolProfiler::from_live(&source.edges, &source.edges, K);
    cols.solve(coef, None, config, profiler.as_ref(), source)?;
    let kinds = cols.kinds();
    Ok((cols.into_results(), kinds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::CsrRows;
    use crate::engine::solve_cold;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spammass_graph::compress::{graph_to_bytes_v4_with, V4Config};
    use spammass_graph::{GraphBuilder, NodeId};
    use std::sync::Arc;

    fn random_graph(n: usize, m: usize, seed: u64) -> spammass_graph::Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::with_capacity(n, m);
        for _ in 0..m {
            let f = rng.gen_range(0..n as u32);
            let t = rng.gen_range(0..n as u32);
            if f != t {
                b.add_edge(NodeId(f), NodeId(t));
            }
        }
        b.build()
    }

    /// Blocks far smaller than the graph: each sweep cycles through many
    /// decode/gather rounds, and every worker owns dozens of blocks.
    fn tiny_block_bytes(g: &spammass_graph::Graph) -> Vec<u8> {
        let cfg = V4Config { rows_per_block: 512, edges_per_block: 2048 };
        graph_to_bytes_v4_with(g, cfg).unwrap()
    }

    fn open(bytes: Vec<u8>) -> CompressedImage {
        CompressedImage::from_store(Arc::new(bytes)).expect("open skips payloads")
    }

    fn jumps(n: usize) -> [JumpVector; 2] {
        let core: Vec<NodeId> = (0..(n as u32) / 10).map(NodeId).collect();
        [JumpVector::Uniform, JumpVector::core(core, n)]
    }

    /// Wide enough for four workers' node floors; the quota override
    /// lifts the edge cap so `.threads(t)` is what runs.
    const POOLED_NODES: usize = 66_000;

    fn pooled(threads: usize) -> PageRankConfig {
        PageRankConfig::default().edges_per_thread(1).threads(threads)
    }

    /// Flips one payload byte in the middle of the first or last
    /// in-block, located through the in-index. v4 header: the in-index
    /// offset sits at byte 40, the in-block count at byte 52; a 24-byte
    /// index entry opens with the block's absolute offset (u64) and
    /// length (u32).
    fn flip_in_block_byte(bytes: &mut [u8], last: bool) {
        let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
        let count = u32_at(bytes, 52) as usize;
        let entry = u64_at(bytes, 40) as usize + if last { (count - 1) * 24 } else { 0 };
        let block = u64_at(bytes, entry) as usize;
        bytes[block + u32_at(bytes, entry + 8) as usize / 2] ^= 0x40;
    }

    #[test]
    fn corrupt_block_payload_is_an_edge_source_error() {
        // Block checksums are verified lazily at first decode, so a
        // flipped payload byte passes `from_store` and must surface from
        // the solve under its own name — never as a jump-vector error.
        let g = random_graph(2_000, 16_000, 61);
        let mut bytes = tiny_block_bytes(&g);
        flip_in_block_byte(&mut bytes, false);
        let err = solve_batch_streamed(
            &open(bytes),
            &jumps(g.node_count()),
            &PageRankConfig::default(),
            u64::MAX,
        )
        .unwrap_err();
        assert!(matches!(err, PageRankError::EdgeSource(_)), "expected EdgeSource, got {err:?}");
        assert!(err.to_string().starts_with("edge source failed:"), "{err}");
    }

    #[test]
    fn a_worker_that_hits_a_damaged_block_stops_the_solve() {
        // The last in-block belongs to the last worker, so the failure
        // happens off the control thread: it must come back as the typed
        // error — no panic across the scope, no hang at the handoff — and
        // the same image with the byte restored must solve.
        let g = random_graph(POOLED_NODES, 260_000, 73);
        let clean = tiny_block_bytes(&g);
        let mut damaged = clean.clone();
        flip_in_block_byte(&mut damaged, true);
        let jumps = jumps(g.node_count());
        for threads in [2usize, 4] {
            let config = pooled(threads);
            let image = open(damaged.clone());
            assert_eq!(streamed_workers(&image, &jumps, &config, u64::MAX).unwrap(), threads);
            let err = solve_batch_streamed(&image, &jumps, &config, u64::MAX).unwrap_err();
            assert!(matches!(err, PageRankError::EdgeSource(_)), "{threads} workers: {err:?}");
            let solved =
                solve_batch_streamed(&open(clean.clone()), &jumps, &config, u64::MAX).unwrap();
            assert!(solved.iter().all(|r| r.converged), "{threads} workers");
        }
    }

    #[test]
    fn budget_violation_is_a_typed_error() {
        let g = random_graph(5_000, 40_000, 67);
        let image = open(tiny_block_bytes(&g));
        let config = PageRankConfig::default();
        let err = solve_batch_streamed(&image, &jumps(g.node_count()), &config, 1024).unwrap_err();
        match err {
            PageRankError::ResidentBudget { required, budget } => {
                assert_eq!(budget, 1024);
                assert!(required > budget);
            }
            other => panic!("expected ResidentBudget, got {other:?}"),
        }
    }

    #[test]
    fn the_budget_gives_up_workers_before_it_refuses() {
        let g = random_graph(POOLED_NODES, 260_000, 79);
        let image = open(tiny_block_bytes(&g));
        let jumps = jumps(g.node_count());
        let (max_rows, max_edges) = image.max_block_dims();
        let blocks = image.block_count(Orientation::Out) + image.block_count(Orientation::In);
        let footprint = |workers| {
            resident_bytes_needed(g.node_count(), &jumps, max_rows, max_edges, blocks, workers)
        };
        let wide = pooled(4);
        assert_eq!(streamed_workers(&image, &jumps, &wide, u64::MAX).unwrap(), 4);
        assert_eq!(streamed_workers(&image, &jumps, &wide, footprint(3)).unwrap(), 3);
        assert_eq!(streamed_workers(&image, &jumps, &wide, footprint(2) - 1).unwrap(), 1);

        // Exactly the one-worker footprint: solves, on one worker, with
        // the bits of an unlimited budget at `threads = 1`.
        assert_eq!(streamed_workers(&image, &jumps, &wide, footprint(1)).unwrap(), 1);
        let tight = solve_batch_streamed(&image, &jumps, &wide, footprint(1)).unwrap();
        let free = solve_batch_streamed(&image, &jumps, &pooled(1), u64::MAX).unwrap();
        for (a, b) in tight.iter().zip(&free) {
            assert!(a.scores.iter().zip(&b.scores).all(|(x, y)| x.to_bits() == y.to_bits()));
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.residual.to_bits(), b.residual.to_bits());
        }

        // One byte less is a property of the input, not of a setting.
        for config in [wide, pooled(1)] {
            match solve_batch_streamed(&image, &jumps, &config, footprint(1) - 1) {
                Err(PageRankError::ResidentBudget { required, budget }) => {
                    assert_eq!((required, budget), (footprint(1), footprint(1) - 1));
                }
                other => panic!("expected ResidentBudget, got {other:?}"),
            }
        }
    }

    #[test]
    fn the_resident_source_on_the_streamed_rows_gives_the_streamed_bits() {
        // One loop, two sources: handed the rows the streamed workers
        // own, the resident source reads the same sources fresh, folds
        // the same residuals and finishes the same rows, so every bit,
        // sweep count and residual agrees.
        let g = random_graph(POOLED_NODES, 260_000, 97);
        let image = open(tiny_block_bytes(&g));
        let n = g.node_count();
        let jumps = jumps(n);
        let specs: Vec<JumpSpec> = jumps.iter().map(|jump| jump.spec(n).unwrap()).collect();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for workers in [2usize, 4] {
            let config = pooled(workers);
            assert_eq!(streamed_workers(&image, &jumps, &config, u64::MAX).unwrap(), workers);
            let rows = BlockSource::new(&image, workers).rows;
            let source = CsrRows::new(&g, config.damping, rows);
            for k in [1usize, 2] {
                let streamed =
                    solve_batch_streamed(&image, &jumps[..k], &config, u64::MAX).unwrap();
                let resident = match k {
                    1 => solve_cold::<1>(&specs[..1], &config, &source).unwrap(),
                    _ => solve_cold::<2>(&specs, &config, &source).unwrap(),
                };
                for (j, (r, s)) in resident.iter().zip(&streamed).enumerate() {
                    let cell = format!("workers={workers} K={k} column={j}");
                    assert_eq!(bits(&r.scores), bits(&s.scores), "{cell}");
                    assert_eq!(r.iterations, s.iterations, "{cell}");
                    assert_eq!(r.residual.to_bits(), s.residual.to_bits(), "{cell}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The claim behind one loop for two sources, on arbitrary graphs
        /// and worker counts: the streamed source's own sweep and the
        /// resident source handed its row ranges agree bit for bit, in
        /// every column, sweep count and residual.
        #[test]
        fn both_sources_give_the_same_bits_on_any_graph(
            n in 10usize..600,
            per_node in 1usize..6,
            seed in 0u64..1 << 20,
            workers in 1usize..=4,
        ) {
            let g = random_graph(n, n * per_node, seed);
            let blocks = V4Config { rows_per_block: 16, edges_per_block: 64 };
            let image = open(graph_to_bytes_v4_with(&g, blocks).unwrap());
            let workers = workers.min(image.block_count(Orientation::In));
            let config = PageRankConfig::default();
            let specs: Vec<JumpSpec> = jumps(n).iter().map(|jump| jump.spec(n).unwrap()).collect();
            let source = BlockSource::new(&image, workers);
            let out = |x| g.out_degree(x) as f64;
            let mut coef: Vec<f64> =
                g.nodes().map(|x| if out(x) > 0.0 { config.damping / out(x) } else { 0.0 }).collect();
            let (streamed, _) = sweep_blocks::<2>(&source, &mut coef, &specs, &config).unwrap();
            let resident = CsrRows::new(&g, config.damping, source.rows.clone());
            let resident = solve_cold::<2>(&specs, &config, &resident).unwrap();
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            for (j, (r, s)) in resident.iter().zip(&streamed).enumerate() {
                proptest::prop_assert_eq!(bits(&r.scores), bits(&s.scores), "column {}", j);
                proptest::prop_assert_eq!(r.iterations, s.iterations, "column {}", j);
                proptest::prop_assert_eq!(r.residual.to_bits(), s.residual.to_bits());
            }
        }
    }

    #[test]
    fn block_ranges_tile_the_index_and_balance_cost() {
        let g = random_graph(POOLED_NODES, 260_000, 83);
        let image = open(tiny_block_bytes(&g));
        let count = image.block_count(Orientation::In);
        for workers in [1usize, 2, 3, 4, count] {
            let source = BlockSource::new(&image, workers);
            assert_eq!(source.blocks.len(), workers);
            let mut next = (0usize, 0usize);
            for (blocks, rows) in source.blocks.iter().zip(&source.rows) {
                assert!(!blocks.is_empty(), "{workers} workers: {:?}", source.blocks);
                assert_eq!((blocks.start, rows.start), next);
                next = (blocks.end, rows.end);
            }
            assert_eq!(next, (count, g.node_count()));
            assert_eq!(source.edges.iter().sum::<usize>(), g.edge_count());
            // No two workers' scratch headers on one cache line.
            for (w, pair) in source.scratches.windows(2).enumerate() {
                let at = |slot: &ScratchSlot| slot as *const ScratchSlot as usize;
                assert_eq!(at(&pair[0]) % 128, 0, "slot {w}");
                assert!(at(&pair[1]) - at(&pair[0]) >= 128, "slots {w} and {}", w + 1);
            }
            if workers <= 4 {
                // Uniform random edges: no range is far above its share.
                let heaviest = *source.edges.iter().max().unwrap();
                assert!(heaviest * workers <= g.edge_count() * 11 / 10, "{:?}", source.edges);
            }
        }
    }

    #[test]
    fn the_streamed_solve_reports_its_pool() {
        let collector = obs::Collector::builder().build();
        let g = random_graph(POOLED_NODES, 260_000, 89);
        let image = open(tiny_block_bytes(&g));
        {
            let _guard = collector.install();
            solve_batch_streamed(&image, &jumps(g.node_count()), &pooled(2), u64::MAX).unwrap();
        }
        let messages = collector.messages();
        let (_, fields) =
            messages.iter().find(|(name, _)| name == obs::names::PAGERANK_POOL_SIZING).unwrap();
        let get = |k: &str| {
            fields.iter().find(|(f, _)| f == k).unwrap_or_else(|| panic!("missing {k}")).1.clone()
        };
        assert_eq!(get("path").as_str(), Some("streamed"));
        assert_eq!(get("cap").as_str(), Some("configured"));
        assert_eq!(get("chosen").as_f64(), Some(2.0));
        assert_eq!(get("nodes").as_f64(), Some(g.node_count() as f64));
        assert_eq!(get("edges").as_f64(), Some(g.edge_count() as f64));
        assert_eq!(get("block_count").as_f64(), Some(image.block_count(Orientation::In) as f64));
        assert!(get("budget").as_f64().unwrap() >= 2.0);
        let metrics = collector.metrics_snapshot();
        let gauge = metrics.iter().find(|(k, _)| k == obs::names::PAGERANK_POOL_THREADS).unwrap();
        assert_eq!(gauge.1, obs::Metric::Gauge(2.0));
        let spans = collector.spans();
        let span = spans.iter().find(|s| s.name == "pagerank.solve.streamed").unwrap();
        let counter = |k: &str| span.counters.iter().find(|(name, _)| name == k).unwrap().1;
        assert_eq!(counter("workers"), 2.0);
        // Every in-block exactly once per sweep, whoever decodes it, and
        // once more before the sweeps and after them.
        let passes = counter("blocks_decoded") / image.block_count(Orientation::In) as f64;
        assert_eq!(passes.fract(), 0.0);
        assert!(passes >= 3.0);
        let kind_of = |y: NodeId| match (g.in_degree(y), g.out_degree(y)) {
            (0, _) => 1,
            (_, 0) => 2,
            _ => 0,
        };
        let mut want = [0.0f64; 4];
        for y in g.nodes() {
            want[kind_of(y)] += 1.0;
            if kind_of(y) == 0 {
                want[3] += g.in_degree(y) as f64;
            }
        }
        let got = ["live_rows", "fixed_rows", "terminal_rows", "gathered_edges"].map(counter);
        assert_eq!(got, want);
        assert!(got[1] > 0.0 && got[2] > 0.0, "{got:?}");
    }

    #[test]
    fn empty_and_zero_column_solves() {
        let g = GraphBuilder::from_edges(0, &[]);
        let image = open(tiny_block_bytes(&g));
        let config = PageRankConfig::default();
        assert!(solve_batch_streamed(&image, &[], &config, u64::MAX).unwrap().is_empty());
        let r = solve_batch_streamed(&image, &[JumpVector::Custom(Vec::new())], &config, u64::MAX)
            .unwrap();
        assert_eq!(r.len(), 1);
        assert!(r[0].converged);
    }

    #[test]
    fn iteration_cap_fails_the_streamed_solve() {
        let g = random_graph(5_000, 40_000, 71);
        let image = open(tiny_block_bytes(&g));
        let tight = PageRankConfig::default().max_iterations(2).tolerance(1e-300);
        assert!(matches!(
            solve_batch_streamed(&image, &jumps(g.node_count()), &tight, u64::MAX),
            Err(PageRankError::DidNotConverge { iterations: 2, .. })
        ));
    }
}
