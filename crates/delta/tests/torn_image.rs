//! What a torn graph-image write leaves on disk.
//!
//! `StateDir::save` streams the v3 image into `graph.bin` chunk by chunk
//! instead of writing one in-memory buffer. The `state.write.graph.torn`
//! failpoint must still model a torn page flush exactly: the first half
//! of the image's bytes land and are synced, the save fails with the
//! injected error, and nothing is published. This runs in a process of
//! its own because armed failpoints are process-global.

use spammass_delta::{failpoint, StateDir, StateError};
use spammass_graph::{io, GraphBuilder, NodeId};
use std::fs;

#[test]
fn a_torn_image_write_leaves_exactly_the_first_half_unpublished() {
    let root = std::env::temp_dir().join(format!("spammass-torn-image-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let edges: Vec<(u32, u32)> = (0..5_000u32).map(|x| (x, (x * 7 + 1) % 5_000)).collect();
    let graph = GraphBuilder::from_edges(5_000, &edges);
    let scores = vec![1.0 / 5_000.0; 5_000];
    let state = StateDir::new(&root);

    failpoint::arm("state.write.graph.torn", 0);
    let err = state.save(&graph, &[NodeId(0)], &scores, &scores).unwrap_err();
    failpoint::disarm_all();
    match &err {
        StateError::Io(e) => assert!(failpoint::is_injected(e), "{err}"),
        other => panic!("expected the injected error, got {other:?}"),
    }

    let image = io::graph_to_bytes_v3(&graph);
    let landed = fs::read(state.generation_path(1).join(StateDir::GRAPH_FILE)).unwrap();
    assert_eq!(landed, image[..image.len() / 2], "the torn file is the image's first half");
    assert_eq!(state.read_manifest().unwrap(), None, "nothing was published");

    // The next save publishes past the debris.
    assert_eq!(state.save(&graph, &[NodeId(0)], &scores, &scores).unwrap(), 2);
    let published = fs::read(state.generation_path(2).join(StateDir::GRAPH_FILE)).unwrap();
    assert_eq!(published, image);
    fs::remove_dir_all(&root).unwrap();
}
