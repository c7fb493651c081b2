//! Golden scores: the engine's answers keep their exact bits.
//!
//! A fixed 66 000-node graph — uniform random links, 256 hubs whose rows
//! take the gather kernel's accumulator banks, and one node in thirteen
//! dangling — is solved through the public entries in every cell the
//! engine distinguishes: resident at 1, 2 and 4 workers × one and two
//! columns × cold and warm starts, and streamed from a tiny-block v4 image
//! at 1 and 2 workers. Each column's scores are hashed bit for bit
//! (FNV-1a over the little-endian bytes of every `f64`) and compared, with
//! its sweep count, against constants recorded when the sweep began
//! skipping rows without in-edges (written once) and rows without
//! out-links (finished once, after the last sweep); the resident
//! multi-worker cells were re-recorded when the edge-range cut began
//! weighing each gathered edge by whether its source opens a new line,
//! and the 4-worker ones again when the resident cut moved to whole rows:
//! no row is summed from pieces any more, and a worker's first row moves
//! by less than a row, which moves scores by rounding only (the sweep
//! counts stay; the 2-worker cut already fell on a row boundary here).
//! A change to the sweep's arithmetic, or to where a worker's rows
//! start, that moves any score by one ulp, in any cell, fails here first.

use spammass_graph::{graph_to_bytes_v4_with, CompressedImage, Graph, GraphBuilder, V4Config};
use spammass_pagerank::stream::streamed_workers;
use spammass_pagerank::{solve_batch_streamed, solve_batch_warm, JumpVector, PageRankConfig};

const NODES: u32 = 66_000;

/// `(cell, [(score hash, iterations)] per column)`, in the order
/// [`cells`] produces them.
const GOLDEN: &[(&str, &[(u64, usize)])] = &[
    ("resident cold threads=1 K=1", &[(0x21BF9399722DDBF7, 55)]),
    ("resident cold threads=1 K=2", &[(0x21BF9399722DDBF7, 55), (0x1576253BE346C2D8, 55)]),
    ("resident cold threads=2 K=1", &[(0x43D8FD5D64986D36, 80)]),
    ("resident cold threads=2 K=2", &[(0x43D8FD5D64986D36, 80), (0xA5E6FB1A156AE608, 80)]),
    ("resident cold threads=4 K=1", &[(0x4966EB109C47E1B9, 92)]),
    ("resident cold threads=4 K=2", &[(0x4966EB109C47E1B9, 92), (0x3F9E0B97E9D8987B, 91)]),
    ("resident warm threads=1 K=1", &[(0xB1CBA3F54D1EF3B4, 55)]),
    ("resident warm threads=1 K=2", &[(0xB1CBA3F54D1EF3B4, 55), (0x7C9123A09C24F1D0, 54)]),
    ("resident warm threads=2 K=1", &[(0xB1341FF83E536478, 80)]),
    ("resident warm threads=2 K=2", &[(0xB1341FF83E536478, 80), (0x58584BA37CD19218, 79)]),
    ("resident warm threads=4 K=1", &[(0x002FDBEF76BC426C, 91)]),
    ("resident warm threads=4 K=2", &[(0x002FDBEF76BC426C, 91), (0x834F6F56CA20C2D5, 90)]),
    ("streamed workers=1 K=2", &[(0x21BF9399722DDBF7, 55), (0x1576253BE346C2D8, 55)]),
    ("streamed workers=2 K=2", &[(0x52CB6AFBC4B6356C, 80), (0xEB5A0146F9D27306, 80)]),
];

fn golden_graph() -> Graph {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut edges = Vec::new();
    for x in 0..NODES {
        if x % 13 == 0 {
            continue;
        }
        for _ in 0..4 {
            let t = (next() % NODES as u64) as u32;
            if t != x {
                edges.push((x, t));
            }
        }
        let hub = (next() % 256) as u32 * (NODES / 256);
        if hub != x {
            edges.push((x, hub));
        }
    }
    GraphBuilder::from_edges(NODES as usize, &edges)
}

/// FNV-1a, 64-bit, over the little-endian bytes of every score.
fn fnv1a(scores: &[f64]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in scores.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Every cell's name and per-column `(hash, iterations)`.
fn cells() -> Vec<(String, Vec<(u64, usize)>)> {
    let g = golden_graph();
    let n = g.node_count();
    let core = (0..n as u32).step_by(11).map(spammass_graph::NodeId).collect();
    let jumps = [JumpVector::Uniform, JumpVector::scaled_core(core, 0.85)];
    // Warm seeds: each jump vector bent away from both the cold start and
    // the fixed point.
    let seeds: Vec<Vec<f64>> = jumps
        .iter()
        .map(|jump| {
            let v = jump.materialize(n).unwrap();
            v.iter().enumerate().map(|(y, x)| x * (0.5 + (y % 7) as f64 / 7.0)).collect()
        })
        .collect();
    // The quota override lets `.threads(t)` be what runs.
    let config = PageRankConfig::default().edges_per_thread(1);
    let summary = |results: Vec<spammass_pagerank::PageRankResult>| -> Vec<(u64, usize)> {
        results.iter().map(|r| (fnv1a(&r.scores), r.iterations)).collect()
    };
    let mut out = Vec::new();
    for warm in [false, true] {
        for threads in [1usize, 2, 4] {
            for k in [1usize, 2] {
                let initial = warm.then(|| &seeds[..k]);
                let results =
                    solve_batch_warm(&g, &jumps[..k], initial, &config.threads(threads)).unwrap();
                let start = if warm { "warm" } else { "cold" };
                out.push((format!("resident {start} threads={threads} K={k}"), summary(results)));
            }
        }
    }
    let blocks = V4Config { rows_per_block: 512, edges_per_block: 2048 };
    let image = CompressedImage::from_store(std::sync::Arc::new(
        graph_to_bytes_v4_with(&g, blocks).unwrap(),
    ))
    .unwrap();
    for workers in [1usize, 2] {
        let config = config.threads(workers);
        assert_eq!(streamed_workers(&image, &jumps, &config, u64::MAX).unwrap(), workers);
        let results = solve_batch_streamed(&image, &jumps, &config, u64::MAX).unwrap();
        out.push((format!("streamed workers={workers} K=2"), summary(results)));
    }
    out
}

#[test]
fn every_engine_cell_keeps_its_score_bits() {
    let got = cells();
    let table: String = got
        .iter()
        .map(|(cell, cols)| {
            let cols: Vec<String> =
                cols.iter().map(|(hash, it)| format!("(0x{hash:016X}, {it})")).collect();
            format!("    (\"{cell}\", &[{}]),\n", cols.join(", "))
        })
        .collect();
    let want: Vec<(String, Vec<(u64, usize)>)> =
        GOLDEN.iter().map(|(cell, cols)| (cell.to_string(), cols.to_vec())).collect();
    assert_eq!(got, want, "score bits moved; this build's table:\n{table}");
}
