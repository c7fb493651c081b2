//! Golden CRC fields: every on-disk format that stores a CRC-32 keeps the
//! exact checksum values it has always had.
//!
//! A fixed 6-node graph, its two score vectors, one journal batch and one
//! manifest are written through the real writers (`StateDir::save`, the v4
//! encoder, the journal writer). The CRC fields stored in the resulting
//! v3 image, v4 image, `SPAMSCRS` files, `SPAMDLT` batch frame and
//! `MANIFEST` are read back at their documented offsets and compared with
//! constants recorded from the bytewise CRC-32 implementation. A faster
//! checksum that changed any value would make old files unreadable, and
//! new files unreadable by old builds; this test fails first.

use spammass_delta::{journal_to_bytes, DeltaRecord, StateDir};
use spammass_graph::compress::graph_to_bytes_v4;
use spammass_graph::le::{get_u32, get_u64};
use spammass_graph::{GraphBuilder, NodeId};
use std::fs;

const NODES: usize = 6;
const EDGES: [(u32, u32); 9] =
    [(0, 1), (0, 2), (1, 2), (2, 0), (3, 2), (4, 3), (4, 5), (5, 4), (5, 0)];
const CORE: [NodeId; 2] = [NodeId(0), NodeId(1)];
const P: [f64; NODES] = [0.31, 0.12, 0.27, 0.08, 0.11, 0.11];
const P_CORE: [f64; NODES] = [0.42, 0.21, 0.25, 0.025, 0.0525, 0.0425];

/// v3: the four section-table CRCs (kind order), then the header CRC.
const V3_CRCS: [u32; 5] = [0xCDBD_8B28, 0x30AF_B356, 0x7F06_2278, 0x935D_2FC6, 0xF084_BBC3];
/// v4: header CRC, then each out block's CRC, then each in block's CRC.
const V4_CRCS: [u32; 3] = [0xD2E4_69AA, 0x94EB_9FC0, 0x0468_6ACC];
/// `SPAMSCRS` trailer CRCs of `p.bin` and `p_core.bin`.
const SCORE_CRCS: [u32; 2] = [0x1EFF_AC1B, 0x173F_23DB];
/// The one `SPAMDLT` batch frame's CRC.
const JOURNAL_CRC: u32 = 0x7B25_18D7;
/// The `crc` line of the `MANIFEST` naming generation 1.
const MANIFEST_CRC_LINE: &str = "crc 0xc7c19222";

fn v3_crcs(image: &[u8]) -> Vec<u32> {
    // Section table at 32: 4 × {kind u32, crc32 u32, offset u64, len u64}.
    let mut crcs: Vec<u32> = (0..4).map(|i| get_u32(image, 32 + 24 * i + 4)).collect();
    crcs.push(get_u32(image, 128));
    crcs
}

fn v4_crcs(image: &[u8]) -> Vec<u32> {
    let mut crcs = vec![get_u32(image, 56)];
    // Index entries: {offset u64, len u32, crc u32, rows u32, edges u32}.
    for (index_at, count_at) in [(32, 48), (40, 52)] {
        let index = get_u64(image, index_at) as usize;
        for b in 0..get_u32(image, count_at) as usize {
            crcs.push(get_u32(image, index + 24 * b + 12));
        }
    }
    crcs
}

fn score_crc(file: &[u8]) -> u32 {
    // Trailer: crc32 u32, then total_len u64.
    get_u32(file, file.len() - 12)
}

#[test]
fn stored_crc_fields_match_recorded_values() {
    let dir = std::env::temp_dir().join(format!("spammass-crc-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let state = StateDir::new(&dir);
    let graph = GraphBuilder::from_edges(NODES, &EDGES);
    assert_eq!(state.save(&graph, &CORE, &P, &P_CORE).unwrap(), 1);
    let generation = state.generation_path(1);
    let read = |name: &str| fs::read(generation.join(name)).unwrap();

    let v3 = read(StateDir::GRAPH_FILE);
    let v4 = graph_to_bytes_v4(&graph);
    let scores =
        [score_crc(&read(StateDir::PAGERANK_FILE)), score_crc(&read(StateDir::CORE_PAGERANK_FILE))];
    let batch = vec![
        DeltaRecord::AddEdge { from: NodeId(3), to: NodeId(0) },
        DeltaRecord::RemoveEdge { from: NodeId(4), to: NodeId(5) },
        DeltaRecord::AddNode { node: NodeId(6) },
        DeltaRecord::CoreAdd { node: NodeId(2) },
        DeltaRecord::CoreRemove { node: NodeId(1) },
    ];
    let journal = journal_to_bytes(&[batch]);
    let journal_crc = get_u32(&journal, journal.len() - 4);
    let manifest = fs::read_to_string(dir.join(StateDir::MANIFEST_FILE)).unwrap();
    let manifest_crc_line = manifest.lines().nth(2).unwrap().to_string();
    let _ = fs::remove_dir_all(&dir);

    let got = format!(
        "v3 {:#010x?}\nv4 {:#010x?}\nscores {:#010x?}\njournal {journal_crc:#010x}\nmanifest {manifest_crc_line}",
        v3_crcs(&v3),
        v4_crcs(&v4),
        scores
    );
    assert_eq!(v3_crcs(&v3), V3_CRCS, "{got}");
    assert_eq!(v4_crcs(&v4), V4_CRCS, "{got}");
    assert_eq!(scores, SCORE_CRCS, "{got}");
    assert_eq!(journal_crc, JOURNAL_CRC, "{got}");
    assert_eq!(manifest_crc_line, MANIFEST_CRC_LINE, "{got}");
}
