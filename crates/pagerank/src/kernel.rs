//! The gather kernel: `acc[j] += q[x][j]` over a row's in-edge sources —
//! the hot loop of every engine sweep, resident or streamed. `q` is the
//! sweep's contribution matrix, `q[x] = p[x]·c/out(x)`, written once per
//! source and sweep by the row body ([`crate::engine`]), so an edge costs
//! one random read: the source's `K`-wide row of `q`.
//!
//! The sweep relaxes in place: a worker relaxing its rows `first..` in
//! ascending order reads a source `x` in `first..y` — a row it already
//! relaxed this sweep — from its write window (*fresh*), and every other
//! source from the previous sweep's contributions (*stale*).
//! [`gather_row`] decides per edge, with one unsigned compare, which
//! buffer a source's row comes from; an empty window makes it a plain
//! Jacobi gather (the finish of a row without out-links).
//!
//! A strictly sequential accumulation chains every add through one
//! register, so the ~4-cycle FP-add latency — not memory bandwidth —
//! bounds throughput on rows with many in-edges (which degree ordering
//! concentrates at the front of the node range). The kernel breaks the
//! chain: edges are consumed four at a time into **four independent
//! register accumulator banks** that are only combined once per row,
//! giving the out-of-order core four parallel dependency chains.
//!
//! Reproducibility rules:
//!
//! * a row is one pass in edge order, and the edge→bank assignment
//!   depends only on an edge's position in the row — never on the column
//!   count `K` or on which buffer an edge reads — so a batched column
//!   stays bit-for-bit identical to the equivalent one-column solve, and
//!   a row with no fresh source sums exactly as a Jacobi gather does;
//! * rows with fewer than [`UNROLL_CUTOFF`] (16) in-edges run the plain
//!   sequential loop — their chains are already shorter than the FP-add
//!   pipeline.
//!
//! Edge order, not stale-then-fresh: summing a row's stale sources first
//! and its fresh ones last keeps the fresh reads off the front of the add
//! chain, but every way of doing it measured slower than one pass in edge
//! order with a per-edge select. Best of three to five runs in
//! alternating sets on a 2-core host, two workers — 1M-host stream web,
//! ms a streamed sweep (the Jacobi sweep read 35–40 there): three slice
//! gathers bounded by binary search 49.2, one stale-first pass over a
//! computed index 50.4, edge order with binary-searched bounds 43.8, edge
//! order with the compare above 40.1; 120k-host scenario web, K = 2, ms a
//! resident solve: 332 / 287 / 207 for the last three. Three slices cost
//! three loop exits on short rows and split long rows' banks, and the
//! searches themselves cost more than the compare.

use spammass_graph::NodeId;

/// Rows below this in-degree take the sequential loop: their
/// accumulation chain is already shorter than the FP-add pipeline, so
/// bank setup and the final combine would cost more than the broken
/// chain saves. On power-law host graphs this routes the long tail of
/// body rows through the cheap path while hub rows — where the serial
/// chain actually binds — get the banks.
const UNROLL_CUTOFF: usize = 16;

/// Adds `Σ q[x]` over `srcs` into `acc`, in edge order: `q[x]` is row `x`
/// of `fresh` when `first ≤ x < first + fresh.len()/K` and row `x` of
/// `read` otherwise. `read` is the interleaved `n×K` contribution matrix
/// of the previous sweep, `fresh` the window of this sweep's contribution
/// buffer holding rows `first..y` — those the calling worker already
/// relaxed.
///
/// Rows of [`UNROLL_CUTOFF`] edges or more go four at a time to banks
/// 0–3; the trailing `len % 4` edges land in banks 0.. by position, and
/// the banks combine pairwise `(b0+b1)+(b2+b3)` into `acc`.
#[inline(always)]
// `j` strides four banks and four score rows at once; an iterator over
// any single one of them would obscure the lockstep access pattern.
#[allow(clippy::needless_range_loop)]
pub(crate) fn gather_row<const K: usize>(
    read: &[f64],
    fresh: &[f64],
    first: usize,
    srcs: &[NodeId],
    acc: &mut [f64; K],
) {
    let span = fresh.len() / K;
    // Where row `x` of the fresh window would sit if the window started
    // at row 0; only ever offset back into the window.
    let fresh_origin = fresh.as_ptr().wrapping_sub(first * K);
    let term = |k: usize| {
        // SAFETY: k < srcs.len() (every loop below); source ids are <
        // node_count (CSR / decoder invariant); a source in
        // `first..first + span` has its row in the `fresh` window, any
        // other in `read` (n×K).
        unsafe {
            let x = srcs.get_unchecked(k).index();
            let origin = if x.wrapping_sub(first) < span { fresh_origin } else { read.as_ptr() };
            &*origin.wrapping_add(x * K).cast::<[f64; K]>()
        }
    };
    let len = srcs.len();
    if len < UNROLL_CUTOFF {
        for k in 0..len {
            let row = term(k);
            for j in 0..K {
                acc[j] += row[j];
            }
        }
        return;
    }
    let mut banks = [[0.0f64; K]; 4];
    let mut k = 0usize;
    while k + 4 <= len {
        let (r0, r1, r2, r3) = (term(k), term(k + 1), term(k + 2), term(k + 3));
        for j in 0..K {
            banks[0][j] += r0[j];
            banks[1][j] += r1[j];
            banks[2][j] += r2[j];
            banks[3][j] += r3[j];
        }
        k += 4;
    }
    for (bank, k) in banks.iter_mut().zip(k..len) {
        let row = term(k);
        for j in 0..K {
            bank[j] += row[j];
        }
    }
    let [b0, b1, b2, b3] = banks;
    for j in 0..K {
        acc[j] += (b0[j] + b1[j]) + (b2[j] + b3[j]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn srcs(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    /// A Jacobi gather: every source from `read`.
    fn gather_stale<const K: usize>(read: &[f64], s: &[NodeId], acc: &mut [f64; K]) {
        gather_row(read, &[], 0, s, acc);
    }

    #[test]
    fn short_rows_accumulate_in_edge_order() {
        let read = [0.0125f64, 0.1, 0.01875, 0.1, 0.375];
        for ids in [&[][..], &[2][..], &[0, 4][..], &[3, 1, 0][..]] {
            let mut got = [1.0f64];
            gather_stale(&read, &srcs(ids), &mut got);
            let mut want = 1.0f64;
            for &x in ids {
                want += read[x as usize];
            }
            assert_eq!(got[0].to_bits(), want.to_bits(), "row {ids:?} must be bit-exact");
        }
    }

    #[test]
    fn long_rows_agree_with_the_sequential_sum_within_reassociation_error() {
        let n = 37usize;
        let read: Vec<f64> = (0..n).map(|i| 0.85 / ((i as f64 + 1.0) * (i as f64 + 2.0))).collect();
        let mut a = 0.5f64;
        for &q in &read {
            a += q;
        }
        let mut b = [0.5f64];
        gather_stale(&read, &srcs(&(0..n as u32).collect::<Vec<_>>()), &mut b);
        assert!((a - b[0]).abs() < 1e-14, "{a} vs {}", b[0]);
    }

    #[test]
    fn bank_order_is_independent_of_column_count() {
        // Column 0 of a K=2 gather must equal the K=1 gather bit-for-bit:
        // duplicate every contribution row into two interleaved columns
        // and compare.
        let n = 23usize;
        let read1: Vec<f64> =
            (0..n).map(|i| ((i * 37) % 11) as f64 / 7.0 * 0.85 / (i as f64 + 1.0)).collect();
        let read2: Vec<f64> = read1.iter().flat_map(|&v| [v, 2.0 * v]).collect();
        let s = srcs(&(0..n as u32).rev().collect::<Vec<_>>());
        let mut one = [0.0f64];
        let mut two = [0.0f64; 2];
        gather_stale(&read1, &s, &mut one);
        gather_stale(&read2, &s, &mut two);
        assert_eq!(one[0].to_bits(), two[0].to_bits());
    }

    #[test]
    fn in_place_reads_only_this_workers_earlier_rows_fresh() {
        // Worker rows 10..30, relaxing row 20: sources in 10..20 come from
        // the fresh window, the rest (20 itself included) from `read`.
        // The result has the bits of a Jacobi gather over one matrix
        // holding each source's fresh or stale row — same edge order,
        // same banks — for short rows and banked ones alike.
        let n = 40usize;
        let read: Vec<f64> =
            (0..2 * n).map(|i| (1.0 + i as f64) / (i as f64 / 2.0 + 2.0)).collect();
        let fresh: Vec<f64> = (2 * 10..2 * 20).map(|i| -100.0 / (i as f64 + 1.0)).collect();
        let mut mixed = read.clone();
        mixed[2 * 10..2 * 20].copy_from_slice(&fresh);
        for ids in
            [vec![], vec![3, 9], vec![10, 19], vec![20, 35], vec![9, 10, 19, 20], (0..40).collect()]
        {
            let s = srcs(&ids);
            let mut got = [0.5f64; 2];
            gather_row(&read, &fresh, 10, &s, &mut got);
            let mut want = [0.5f64; 2];
            gather_stale(&mixed, &s, &mut want);
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{ids:?}");
        }
    }

    #[test]
    fn pre_scaled_rows_sum_to_the_bits_of_scaling_per_edge() {
        // The sweep stores q[x] = p[x]·coef[x] once per source; gathering
        // those rows must give the bits of multiplying on every edge, as
        // the kernel did before contributions were stored — for short and
        // banked rows, stale and fresh sources alike.
        let n = 40usize;
        let p: Vec<f64> = (0..2 * n).map(|i| 1.0 / (i as f64 + 3.0)).collect();
        let coef: Vec<f64> = (0..n).map(|x| 0.85 / ((x % 9) as f64 + 1.0)).collect();
        let q: Vec<f64> = (0..2 * n).map(|i| p[i] * coef[i / 2]).collect();
        for ids in [vec![0, 7, 3], (0..40).rev().collect(), (5..30).chain(2..9).collect()] {
            let s = srcs(&ids);
            let mut got = [0.25f64; 2];
            gather_row(&q, &q[2 * 10..2 * 20], 10, &s, &mut got);
            let mut want = [0.25f64; 2];
            let mut banks = [[0.0f64; 2]; 4];
            let banked = ids.len() >= UNROLL_CUTOFF;
            for (k, &x) in ids.iter().enumerate() {
                let x = x as usize;
                for j in 0..2 {
                    let term = p[2 * x + j] * coef[x];
                    if banked {
                        banks[k % 4][j] += term;
                    } else {
                        want[j] += term;
                    }
                }
            }
            if banked {
                for j in 0..2 {
                    want[j] += (banks[0][j] + banks[1][j]) + (banks[2][j] + banks[3][j]);
                }
            }
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{ids:?}");
        }
    }
}
