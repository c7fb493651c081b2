//! Import compatibility with state directories written before v3 became
//! the only resident image (PR 16).
//!
//! Nothing in the workspace can write a v2 `SPAMGRPH` image any more, so
//! the directories below are assembled with the test-only legacy encoder:
//! a generation-layout directory whose `gen-0001/graph.bin` is v2 (what
//! `estimate --state` published), and a flat-layout directory with a v2
//! image (what pre-PR-6 runs left). Both must keep loading through every
//! loader, audit healthy, and upgrade to v3 on the next save.

use spammass_delta::{check_state, scores_to_bytes, StateDir};
use spammass_graph::{io, GraphBuilder, NodeId};
use std::fs;
use std::path::PathBuf;

include!(concat!(env!("CARGO_MANIFEST_DIR"), "/../graph/tests/support/legacy_image.rs"));

const NODES: usize = 5;
const EDGES: [(u32, u32); 6] = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (0, 4)];
const CORE: [NodeId; 2] = [NodeId(0), NodeId(2)];
const P: [f64; NODES] = [0.3, 0.2, 0.2, 0.2, 0.1];
const P_CORE: [f64; NODES] = [0.15, 0.1, 0.15, 0.1, 0.2];

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spammass-legacy-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A generation-layout directory as the parent commit's `save` wrote it.
fn v2_generation_dir(tag: &str) -> StateDir {
    let state = StateDir::new(fresh_dir(tag));
    let graph = GraphBuilder::from_edges(NODES, &EDGES);
    assert_eq!(state.save(&graph, &CORE, &P, &P_CORE).unwrap(), 1);
    // Score images, core file and manifest are unchanged formats; only the
    // graph image differed.
    let image = state.generation_path(1).join(StateDir::GRAPH_FILE);
    fs::write(image, legacy_image(2, NODES, &EDGES)).unwrap();
    state
}

/// A flat-layout directory (no manifest) with a v2 image.
fn v2_flat_dir(tag: &str) -> StateDir {
    let root = fresh_dir(tag);
    fs::create_dir_all(&root).unwrap();
    fs::write(root.join(StateDir::GRAPH_FILE), legacy_image(2, NODES, &EDGES)).unwrap();
    fs::write(root.join(StateDir::PAGERANK_FILE), scores_to_bytes(&P)).unwrap();
    fs::write(root.join(StateDir::CORE_PAGERANK_FILE), scores_to_bytes(&P_CORE)).unwrap();
    fs::write(root.join(StateDir::CORE_FILE), "# good core (node ids)\n0\n2\n").unwrap();
    StateDir::new(root)
}

fn assert_imports_and_upgrades(state: &StateDir, image_dir: PathBuf, generation: Option<u64>) {
    let expected = GraphBuilder::from_edges(NODES, &EDGES);
    let v3 = io::graph_to_bytes_v3(&expected);

    let (mapped, stats) = io::map_graph_file(&image_dir.join(StateDir::GRAPH_FILE)).unwrap();
    assert_eq!(stats.version, 2);
    assert_eq!(io::graph_to_bytes_v3(&mapped), v3);

    let (tag, loaded) = state.load_current().unwrap();
    assert_eq!(tag, generation);
    assert_eq!(io::graph_to_bytes_v3(&loaded.graph), v3);
    assert_eq!(loaded.core, CORE);
    assert_eq!(loaded.pagerank, P);
    assert_eq!(loaded.core_pagerank, P_CORE);

    let (recovered, report) = state.load_with_recovery().unwrap();
    assert!(!report.recovered, "{report}");
    assert_eq!(report.used, generation);
    assert_eq!(io::graph_to_bytes_v3(&recovered.graph), v3);

    let fsck = check_state(state, None).unwrap();
    assert!(fsck.is_healthy(), "{fsck}");
    assert!(fsck.recoverable(), "{fsck}");

    // The next save publishes a v3 generation, byte-identical to
    // encoding the graph directly.
    let next =
        state.save(&loaded.graph, &loaded.core, &loaded.pagerank, &loaded.core_pagerank).unwrap();
    assert_eq!(next, generation.map_or(1, |g| g + 1));
    let published = fs::read(state.generation_path(next).join(StateDir::GRAPH_FILE)).unwrap();
    assert_eq!(published, v3);
    let reloaded = state.load().unwrap();
    assert!(reloaded.graph.is_zero_copy() || !cfg!(unix), "a v3 generation loads mapped");
    assert_eq!(reloaded.pagerank, P);
    assert!(check_state(state, None).unwrap().is_healthy());
    fs::remove_dir_all(state.path()).unwrap();
}

#[test]
fn v2_generation_directory_imports_and_upgrades() {
    let state = v2_generation_dir("gen");
    assert_imports_and_upgrades(&state, state.generation_path(1), Some(1));
}

#[test]
fn v2_flat_directory_imports_and_upgrades() {
    let state = v2_flat_dir("flat");
    assert_imports_and_upgrades(&state, state.path().to_path_buf(), None);
}
