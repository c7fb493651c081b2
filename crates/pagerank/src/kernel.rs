//! The gather kernel: `acc[j] += p[x]·coef[x]` over a row's in-edge
//! sources — the hot loop of every engine sweep, resident or streamed.
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
//! * the edge→bank assignment depends only on an edge's position within
//!   the row slice — never on the column count `K` — so a batched column
//!   stays bit-for-bit identical to the equivalent one-column solve;
//! * rows with fewer than [`UNROLL_CUTOFF`] (16) in-edges run the plain
//!   sequential loop — their chains are already shorter than the FP-add
//!   pipeline.

use spammass_graph::NodeId;

/// Rows below this in-degree take the sequential loop: their
/// accumulation chain is already shorter than the FP-add pipeline, so
/// bank setup and the final combine would cost more than the broken
/// chain saves. On power-law host graphs this routes the long tail of
/// body rows through the cheap path while hub rows — where the serial
/// chain actually binds — get the banks.
const UNROLL_CUTOFF: usize = 16;

/// Sequential accumulation in edge order, for short rows.
#[inline(always)]
fn gather_sequential<const K: usize>(
    read: &[f64],
    coef: &[f64],
    srcs: &[NodeId],
    acc: &mut [f64; K],
) {
    for s in srcs {
        let x = s.index();
        // SAFETY: CSR source ids are < node_count by graph construction;
        // callers size coef to node_count and read to node_count·K.
        unsafe {
            let w = *coef.get_unchecked(x);
            let row = read.get_unchecked(x * K..x * K + K);
            for j in 0..K {
                acc[j] += row[j] * w;
            }
        }
    }
}

/// Adds `Σ read[x·K+j]·coef[x]` over `srcs` into `acc`. `read` is the
/// interleaved `n×K` score matrix, `coef` the per-source coefficient
/// table `c/out(x)`.
///
/// Chunks of four edges go to banks 0–3; the trailing `len % 4` edges
/// land in banks 0.. by position, and the banks combine pairwise
/// `(b0+b1)+(b2+b3)` into `acc`.
#[inline(always)]
// `j` strides four banks and four read rows at once; an iterator over
// any single one of them would obscure the lockstep access pattern.
#[allow(clippy::needless_range_loop)]
pub(crate) fn gather_row<const K: usize>(
    read: &[f64],
    coef: &[f64],
    srcs: &[NodeId],
    acc: &mut [f64; K],
) {
    let len = srcs.len();
    if len < UNROLL_CUTOFF {
        gather_sequential(read, coef, srcs, acc);
        return;
    }
    let mut banks = [[0.0f64; K]; 4];
    let mut i = 0usize;
    while i + 4 <= len {
        // SAFETY: i+3 < len by the loop bound; source ids are <
        // node_count (CSR invariant), coef.len() == node_count and
        // read.len() == node_count·K.
        unsafe {
            let x0 = srcs.get_unchecked(i).index();
            let x1 = srcs.get_unchecked(i + 1).index();
            let x2 = srcs.get_unchecked(i + 2).index();
            let x3 = srcs.get_unchecked(i + 3).index();
            let w0 = *coef.get_unchecked(x0);
            let w1 = *coef.get_unchecked(x1);
            let w2 = *coef.get_unchecked(x2);
            let w3 = *coef.get_unchecked(x3);
            for j in 0..K {
                banks[0][j] += *read.get_unchecked(x0 * K + j) * w0;
                banks[1][j] += *read.get_unchecked(x1 * K + j) * w1;
                banks[2][j] += *read.get_unchecked(x2 * K + j) * w2;
                banks[3][j] += *read.get_unchecked(x3 * K + j) * w3;
            }
        }
        i += 4;
    }
    for (bank, s) in banks.iter_mut().zip(&srcs[i..]) {
        let x = s.index();
        let w = coef[x];
        let row = &read[x * K..x * K + K];
        for j in 0..K {
            bank[j] += row[j] * w;
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

    #[test]
    fn short_rows_accumulate_in_edge_order() {
        let read = [0.125f64, 0.5, 0.0625, 0.25, 0.75];
        let coef = [0.1f64, 0.2, 0.3, 0.4, 0.5];
        for ids in [&[][..], &[2][..], &[0, 4][..], &[3, 1, 0][..]] {
            let mut got = [1.0f64];
            gather_row(&read, &coef, &srcs(ids), &mut got);
            let mut want = 1.0f64;
            for &x in ids {
                want += read[x as usize] * coef[x as usize];
            }
            assert_eq!(got[0], want, "row {ids:?} must be bit-exact");
        }
    }

    #[test]
    fn long_rows_agree_with_the_sequential_sum_within_reassociation_error() {
        let n = 37usize;
        let read: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let coef: Vec<f64> = (0..n).map(|i| 0.85 / (i as f64 + 2.0)).collect();
        let s = srcs(&(0..n as u32).collect::<Vec<_>>());
        let mut a = [0.5f64];
        let mut b = [0.5f64];
        gather_sequential(&read, &coef, &s, &mut a);
        gather_row(&read, &coef, &s, &mut b);
        assert!((a[0] - b[0]).abs() < 1e-14, "{} vs {}", a[0], b[0]);
    }

    #[test]
    fn bank_order_is_independent_of_column_count() {
        // Column 0 of a K=2 gather must equal the K=1 gather bit-for-bit:
        // duplicate every score row into two interleaved columns and
        // compare.
        let n = 23usize;
        let read1: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 / 7.0).collect();
        let read2: Vec<f64> = read1.iter().flat_map(|&v| [v, 2.0 * v]).collect();
        let coef: Vec<f64> = (0..n).map(|i| 0.85 / (i as f64 + 1.0)).collect();
        let s = srcs(&(0..n as u32).rev().collect::<Vec<_>>());
        let mut one = [0.0f64];
        let mut two = [0.0f64; 2];
        gather_row(&read1, &coef, &s, &mut one);
        gather_row(&read2, &coef, &s, &mut two);
        assert_eq!(one[0], two[0]);
    }
}
