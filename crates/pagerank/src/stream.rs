//! Blocked out-of-core Jacobi: PageRank over a compressed image larger
//! than RAM.
//!
//! The resident working set is only what the iteration mathematically
//! needs: the interleaved jump/front/back score matrices (`3·n·K` f64),
//! the per-node damping coefficients (`n` f64), and **one** decoded
//! block's scratch CSR. The edge structure itself never materializes —
//! each sweep streams the in-orientation blocks of a
//! [`CompressedImage`], decoding block-at-a-time into a reusable
//! [`BlockScratch`], and hands every decoded row to the engine's row
//! body ([`crate::engine`]); the engine's column controller owns the
//! matrices, the convergence decision and the result.
//!
//! ## Exactness
//!
//! A streamed sweep visits rows in ascending order through the same row
//! body, gather kernel and coefficient values as the resident engine
//! with `threads = 1` (which has no boundary rows), so the two are
//! **bit-for-bit identical** — the streamed solver is not an
//! approximation, just a different row source. Against a multi-worker
//! resident solve the scores agree to the usual re-association noise
//! (≤1e-12 per node on converged solves), and the flagged set is
//! identical; `tests/properties.rs` and
//! `crates/core/tests/stream_parity.rs` pin the two claims.
//!
//! ## Budget
//!
//! Callers pass an explicit byte budget (the CLI's
//! `--max-resident-mb`). The solve computes its worst-case resident
//! footprint up front and refuses with
//! [`PageRankError::ResidentBudget`] rather than quietly overshooting —
//! an out-of-core path that silently allocates past its contract is
//! worse than none.

use crate::batch::{empty_results, MAX_FUSED_COLUMNS};
use crate::config::PageRankConfig;
use crate::engine::Columns;
use crate::error::PageRankError;
use crate::jump::JumpVector;
use crate::kernel;
use crate::PageRankResult;
use spammass_graph::compress::{BlockScratch, CompressedImage, Orientation};
use spammass_obs as obs;
use std::ops::ControlFlow;

/// Bytes the streamed solve keeps resident for `n` nodes, `k` total
/// columns, and an image whose largest block decodes to
/// `(max_rows, max_edges)`: score matrices for the widest chunk, the
/// coefficient vector, one block scratch, and the per-block index
/// bookkeeping.
pub fn resident_bytes_needed(
    n: usize,
    k: usize,
    max_rows: usize,
    max_edges: usize,
    blocks: usize,
) -> u64 {
    let k_chunk = k.clamp(1, MAX_FUSED_COLUMNS);
    let score_matrices = 3 * (n as u64) * (k_chunk as u64) * 8; // vmat + front + back
    let coef = n as u64 * 8;
    let scratch = BlockScratch::bytes_for(max_rows, max_edges) as u64;
    let index = blocks as u64 * 40; // entry + first-row + verified bit, rounded up
    score_matrices + coef + scratch + index
}

/// Solves `(I − c·Tᵀ)pⱼ = (1 − c)vⱼ` for every jump vector in `jumps`
/// by streaming the compressed image's in-blocks through the engine's
/// sweep — the out-of-core counterpart of
/// [`crate::batch::solve_batch`], bit-identical to its one-worker path.
///
/// `max_resident_bytes` bounds the solve's own working set (scores,
/// coefficients, block scratch — not the mmap'd image, which the OS
/// pages in and out freely).
///
/// # Errors
/// [`PageRankError::ResidentBudget`] when the working set cannot fit;
/// otherwise the same contract as [`crate::batch::solve_batch`]
/// (validation, guard trips, the iteration cap). A block that fails to
/// decode — block checksums are verified lazily at first decode, so this
/// is where a damaged payload, a file changed under the mmap, or a
/// failing medium surfaces — is [`PageRankError::EdgeSource`].
pub fn solve_batch_streamed(
    image: &CompressedImage,
    jumps: &[JumpVector],
    config: &PageRankConfig,
    max_resident_bytes: u64,
) -> Result<Vec<PageRankResult>, PageRankError> {
    config.validate()?;
    let n = image.node_count();
    let k = jumps.len();
    let mut vs = Vec::with_capacity(k);
    for jump in jumps {
        vs.push(jump.materialize(n)?);
    }
    if k == 0 || n == 0 {
        return Ok(empty_results(k));
    }

    let (max_rows, max_edges) = image.max_block_dims();
    let blocks = image.block_count(Orientation::Out) + image.block_count(Orientation::In);
    let required = resident_bytes_needed(n, k, max_rows, max_edges, blocks);
    if required > max_resident_bytes {
        return Err(PageRankError::ResidentBudget { required, budget: max_resident_bytes });
    }

    let mut span = obs::span("pagerank.solve.streamed");
    span.record("columns", k as f64);
    span.record("nodes", n as f64);
    span.record("resident_budget_bytes", max_resident_bytes as f64);
    let encoded_before = image.encoded_bytes_read();

    // One streaming pass over the out-blocks builds the damping
    // coefficients — the only out-orientation state a sweep needs.
    let c = config.damping;
    let mut coef = vec![0.0f64; n];
    {
        let mut scratch = BlockScratch::default();
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
    let mut blocks_decoded = 0u64;
    for chunk in vs.chunks(MAX_FUSED_COLUMNS) {
        results.extend(match chunk.len() {
            1 => sweep_blocks::<1>(image, chunk, &coef, config, &mut blocks_decoded)?,
            2 => sweep_blocks::<2>(image, chunk, &coef, config, &mut blocks_decoded)?,
            3 => sweep_blocks::<3>(image, chunk, &coef, config, &mut blocks_decoded)?,
            _ => sweep_blocks::<4>(image, chunk, &coef, config, &mut blocks_decoded)?,
        });
    }

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

/// One `K`-column streamed solve: the engine's sweep with rows delivered
/// block-at-a-time in ascending order.
fn sweep_blocks<const K: usize>(
    image: &CompressedImage,
    vs: &[Vec<f64>],
    coef: &[f64],
    config: &PageRankConfig,
    blocks_decoded: &mut u64,
) -> Result<Vec<PageRankResult>, PageRankError> {
    let in_blocks = image.block_count(Orientation::In);
    let mut cols = Columns::<K>::new(vs, None, config);
    let mut scratch = BlockScratch::default();
    loop {
        let (body, read, write) = cols.sweep();
        let mut deltas = [0.0f64; K];
        for idx in 0..in_blocks {
            image.decode_block(Orientation::In, idx, &mut scratch).map_err(edge_source)?;
            *blocks_decoded += 1;
            for i in 0..scratch.rows {
                let y = scratch.first_row + i;
                body.relax(
                    y,
                    read,
                    |acc| kernel::gather_row(read, coef, scratch.row(i), acc),
                    &mut write[y * K..(y + 1) * K],
                    &mut deltas,
                );
            }
        }
        if let ControlFlow::Break(outcome) = cols.finish_sweep(deltas, config) {
            outcome?;
            break;
        }
    }
    // Free the sweep-only state before materializing per-column vectors
    // so the de-interleave phase stays under the same budget as the
    // sweeps.
    drop(scratch);
    cols.release_sweep_buffers();
    Ok(cols.into_results())
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn tiny_block_image(g: &spammass_graph::Graph) -> CompressedImage {
        // Blocks far smaller than the graph: each sweep cycles through
        // many decode/gather rounds, the regime the parity claim covers.
        let cfg = V4Config { rows_per_block: 512, edges_per_block: 2048 };
        let bytes = graph_to_bytes_v4_with(g, cfg).unwrap();
        CompressedImage::from_store(Arc::new(bytes)).unwrap()
    }

    fn jumps(n: usize) -> [JumpVector; 2] {
        let core: Vec<NodeId> = (0..(n as u32) / 10).map(NodeId).collect();
        [JumpVector::Uniform, JumpVector::core(core, n)]
    }

    #[test]
    fn corrupt_block_payload_is_an_edge_source_error() {
        // Block checksums are verified lazily at first decode, so a
        // flipped payload byte passes `from_store` and must surface from
        // the solve under its own name — never as a jump-vector error.
        let g = random_graph(2_000, 16_000, 61);
        let cfg = V4Config { rows_per_block: 512, edges_per_block: 2048 };
        let mut bytes = graph_to_bytes_v4_with(&g, cfg).unwrap();
        // v4 header: the in-index offset sits at byte 40; an index entry
        // opens with the block's absolute offset (u64) and length (u32).
        let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let in_index = u64_at(&bytes, 40) as usize;
        let block = u64_at(&bytes, in_index) as usize;
        let len = u32::from_le_bytes(bytes[in_index + 8..in_index + 12].try_into().unwrap());
        bytes[block + len as usize / 2] ^= 0x40;
        let image = CompressedImage::from_store(Arc::new(bytes)).expect("open skips payloads");
        let err = solve_batch_streamed(
            &image,
            &jumps(g.node_count()),
            &PageRankConfig::default(),
            u64::MAX,
        )
        .unwrap_err();
        assert!(matches!(err, PageRankError::EdgeSource(_)), "expected EdgeSource, got {err:?}");
        assert!(err.to_string().starts_with("edge source failed:"), "{err}");
    }

    #[test]
    fn budget_violation_is_a_typed_error() {
        let g = random_graph(5_000, 40_000, 67);
        let image = tiny_block_image(&g);
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
    fn empty_and_zero_column_solves() {
        let g = GraphBuilder::from_edges(0, &[]);
        let image = tiny_block_image(&g);
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
        let image = tiny_block_image(&g);
        let tight = PageRankConfig::default().max_iterations(2).tolerance(1e-300);
        assert!(matches!(
            solve_batch_streamed(&image, &jumps(g.node_count()), &tight, u64::MAX),
            Err(PageRankError::DidNotConverge { iterations: 2, .. })
        ));
    }
}
