//! Golden scores: the engine's answers keep their exact bits.
//!
//! A fixed 66 000-node graph — uniform random links, 256 hubs whose rows
//! take the gather kernel's accumulator banks, and one node in thirteen
//! dangling — is solved through the public entries in every cell the
//! engine distinguishes: resident at 1, 2 and 4 workers × one and two
//! columns × cold and warm starts, and streamed from a tiny-block v4 image
//! at 1 and 2 workers. Each column's scores are hashed bit for bit
//! (FNV-1a over the little-endian bytes of every `f64`) and compared, with
//! its sweep count, against constants recorded before the sweep gathered
//! pre-scaled contributions. A change to the sweep's arithmetic that
//! moves any score by one ulp, in any cell, fails here first.

use spammass_graph::{graph_to_bytes_v4_with, CompressedImage, Graph, GraphBuilder, V4Config};
use spammass_pagerank::stream::streamed_workers;
use spammass_pagerank::{solve_batch_streamed, solve_batch_warm, JumpVector, PageRankConfig};

const NODES: u32 = 66_000;

/// `(cell, [(score hash, iterations)] per column)`, in the order
/// [`cells`] produces them.
const GOLDEN: &[(&str, &[(u64, usize)])] = &[
    ("resident cold threads=1 K=1", &[(0x4F96F669044B5C16, 56)]),
    ("resident cold threads=1 K=2", &[(0x4F96F669044B5C16, 56), (0x2A120D643DBCC676, 55)]),
    ("resident cold threads=2 K=1", &[(0xC771913B3FBCCADC, 81)]),
    ("resident cold threads=2 K=2", &[(0xC771913B3FBCCADC, 81), (0xC76AED262DCB4B57, 80)]),
    ("resident cold threads=4 K=1", &[(0x3DC00D25A14093AD, 92)]),
    ("resident cold threads=4 K=2", &[(0x3DC00D25A14093AD, 92), (0xD3C23E00CACFA0C9, 92)]),
    ("resident warm threads=1 K=1", &[(0xBCF8C8ED03F9F6E8, 55)]),
    ("resident warm threads=1 K=2", &[(0xBCF8C8ED03F9F6E8, 55), (0x51561D5D048816D1, 55)]),
    ("resident warm threads=2 K=1", &[(0xD5027F99E5C15917, 80)]),
    ("resident warm threads=2 K=2", &[(0xD5027F99E5C15917, 80), (0x4163FCCDE16E81B5, 80)]),
    ("resident warm threads=4 K=1", &[(0x56E4780EF0F0E99D, 91)]),
    ("resident warm threads=4 K=2", &[(0x56E4780EF0F0E99D, 91), (0xD72385199F34DD13, 91)]),
    ("streamed workers=1 K=2", &[(0x4F96F669044B5C16, 56), (0x2A120D643DBCC676, 55)]),
    ("streamed workers=2 K=2", &[(0x17E71370328F1D43, 81), (0xFD70FAE75F438C2F, 80)]),
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
