//! Crash-torture suite for the persistence layer.
//!
//! The atomic-publication claim in `state.rs` is an invariant over
//! *every* syscall boundary in the write sequence, so this test does not
//! hand-pick failure points: it **records** the failpoint trace of one
//! clean `save`, then replays the sequence once per recorded point with
//! that point armed to fail, asserting after each simulated crash that
//!
//! 1. the crashed `save` surfaced the injected error (no swallowing),
//! 2. `load_with_recovery` lands on a *consistent* snapshot — bit-for-bit
//!    the pre-crash state or the post-crash state, never a mix,
//! 3. `fsck --repair` (the library call under the CLI) returns the
//!    directory to full health, and
//! 4. a retried `save` then succeeds and is loadable.
//!
//! Because the trace is recorded, adding a new write to the save
//! pipeline automatically adds its failure modes to this suite.
//!
//! The registry of armed points is process-global; everything runs in
//! one `#[test]` so arming never races.

use spammass_delta::state::SavedState;
use spammass_delta::{append_to_file, failpoint, read_journal, read_journal_recovering};
use spammass_delta::{repair_journal, repair_state, DeltaRecord, StateDir};
use spammass_graph::{io, Graph, GraphBuilder, NodeId};
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

/// The failpoint registry is process-global: the two torture tests must
/// not interleave their arm/record sequences.
static SERIAL: Mutex<()> = Mutex::new(());

/// A comparable digest of a loaded state: serialized graph plus the
/// exact core/score vectors.
fn fingerprint(s: &SavedState) -> (Vec<u8>, Vec<NodeId>, Vec<f64>, Vec<f64>) {
    (io::graph_to_bytes_v3(&s.graph), s.core.clone(), s.pagerank.clone(), s.core_pagerank.clone())
}

struct Scenario {
    graph: Graph,
    core: Vec<NodeId>,
    pagerank: Vec<f64>,
    core_pagerank: Vec<f64>,
}

impl Scenario {
    fn save(&self, dir: &StateDir) -> Result<u64, spammass_delta::StateError> {
        dir.save(&self.graph, &self.core, &self.pagerank, &self.core_pagerank)
    }
}

fn state_a() -> Scenario {
    Scenario {
        graph: GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]),
        core: vec![NodeId(0), NodeId(2)],
        pagerank: vec![0.25; 4],
        core_pagerank: vec![0.2, 0.1, 0.2, 0.1],
    }
}

fn state_b() -> Scenario {
    Scenario {
        graph: GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (0, 4)]),
        core: vec![NodeId(0), NodeId(2), NodeId(4)],
        pagerank: vec![0.2; 5],
        core_pagerank: vec![0.15, 0.1, 0.15, 0.1, 0.2],
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spammass-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_failpoint_crash_leaves_a_recoverable_state() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a = state_a();
    let b = state_b();

    // Record the failpoint trace of one clean save-over-existing-state.
    let trace = {
        let root = fresh_dir("trace");
        let dir = StateDir::new(&root);
        a.save(&dir).expect("baseline save");
        failpoint::start_recording();
        b.save(&dir).expect("recorded save");
        let trace = failpoint::stop_recording();
        fs::remove_dir_all(&root).unwrap();
        trace
    };
    // Sanity: the trace must cover the whole pipeline, or this suite is
    // silently testing nothing.
    for expected in [
        "state.create_root",
        "state.gen.create",
        "state.write.graph",
        "state.write.graph.torn",
        "state.write.graph.fsync",
        "state.write.p",
        "state.write.p_core",
        "state.write.core",
        "state.manifest.write",
        "state.manifest.write.torn",
        "state.manifest.write.fsync",
        "state.manifest.rename",
        "state.manifest.dirsync",
    ] {
        assert!(trace.iter().any(|t| t == expected), "trace missing {expected:?}: {trace:?}");
    }

    // Replay the save once per (point, occurrence), crashing there.
    let fp_a = {
        let root = fresh_dir("fpa");
        let dir = StateDir::new(&root);
        a.save(&dir).unwrap();
        let fp = fingerprint(&dir.load().unwrap());
        fs::remove_dir_all(&root).unwrap();
        fp
    };
    let fp_b = {
        let root = fresh_dir("fpb");
        let dir = StateDir::new(&root);
        b.save(&dir).unwrap();
        let fp = fingerprint(&dir.load().unwrap());
        fs::remove_dir_all(&root).unwrap();
        fp
    };

    let mut seen = std::collections::HashMap::<&str, u64>::new();
    for (i, point) in trace.iter().enumerate() {
        let occurrence = *seen.entry(point.as_str()).and_modify(|c| *c += 1).or_insert(0);

        let root = fresh_dir(&format!("pt{i}"));
        let dir = StateDir::new(&root);
        a.save(&dir).unwrap_or_else(|e| panic!("[{point}#{occurrence}] baseline save: {e}"));

        failpoint::arm(point, occurrence);
        let err = b.save(&dir).expect_err(&format!("[{point}#{occurrence}] armed save must fail"));
        failpoint::disarm_all();
        let injected = match &err {
            spammass_delta::StateError::Io(e) => failpoint::is_injected(e),
            other => panic!("[{point}#{occurrence}] expected injected Io error, got {other:?}"),
        };
        assert!(injected, "[{point}#{occurrence}] error not the injected one: {err}");

        // Invariant 2: recovery lands on exactly A or exactly B.
        let (recovered, report) = dir
            .load_with_recovery()
            .unwrap_or_else(|e| panic!("[{point}#{occurrence}] unrecoverable: {e}"));
        let fp = fingerprint(&recovered);
        assert!(
            fp == fp_a || fp == fp_b,
            "[{point}#{occurrence}] recovered state is neither pre- nor post-crash \
             (report: {report})"
        );
        // A crash before the manifest rename must preserve A; only the
        // final dirsync can leave B published.
        if point != "state.manifest.dirsync" {
            assert!(fp == fp_a, "[{point}#{occurrence}] pre-publication crash must preserve A");
        }

        // Invariant 3: fsck --repair returns the directory to health.
        let fsck = repair_state(&dir, None)
            .unwrap_or_else(|e| panic!("[{point}#{occurrence}] repair failed: {e}"));
        assert!(fsck.is_healthy(), "[{point}#{occurrence}] post-repair unhealthy:\n{fsck}");
        assert!(fsck.recoverable(), "[{point}#{occurrence}] repair lost all state:\n{fsck}");

        // Invariant 4: the pipeline keeps working after the crash.
        b.save(&dir).unwrap_or_else(|e| panic!("[{point}#{occurrence}] retry save: {e}"));
        let fp = fingerprint(&dir.load().unwrap());
        assert!(fp == fp_b, "[{point}#{occurrence}] retried save not loadable as B");

        fs::remove_dir_all(&root).unwrap();
    }
    assert!(seen.len() >= 13, "unexpectedly small failpoint coverage: {seen:?}");
}

#[test]
fn every_journal_append_crash_leaves_a_recoverable_journal() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let batch1 =
        vec![DeltaRecord::AddNode { node: NodeId(4) }, DeltaRecord::CoreAdd { node: NodeId(4) }];
    let batch2 = vec![
        DeltaRecord::AddEdge { from: NodeId(4), to: NodeId(0) },
        DeltaRecord::RemoveEdge { from: NodeId(1), to: NodeId(2) },
    ];

    // Record the append's failpoint trace the same way.
    let trace = {
        let root = fresh_dir("jtrace");
        fs::create_dir_all(&root).unwrap();
        let path = root.join("deltas.spamdlt");
        append_to_file(&path, std::slice::from_ref(&batch1)).unwrap();
        failpoint::start_recording();
        append_to_file(&path, std::slice::from_ref(&batch2)).unwrap();
        let trace = failpoint::stop_recording();
        fs::remove_dir_all(&root).unwrap();
        trace
    };
    for expected in ["journal.append.open", "journal.append.torn", "journal.append.fsync"] {
        assert!(trace.iter().any(|t| t == expected), "trace missing {expected:?}: {trace:?}");
    }

    for (i, point) in trace.iter().enumerate() {
        let root = fresh_dir(&format!("jpt{i}"));
        fs::create_dir_all(&root).unwrap();
        let path = root.join("deltas.spamdlt");
        append_to_file(&path, std::slice::from_ref(&batch1)).unwrap();

        failpoint::arm(point, 0);
        let err = append_to_file(&path, std::slice::from_ref(&batch2))
            .expect_err(&format!("[{point}] armed append must fail"));
        failpoint::disarm_all();
        assert!(err.to_string().contains("injected"), "[{point}] {err}");

        // The recovering read must salvage a consistent prefix: batch 1
        // alone (append lost / torn) or both batches (crash after the
        // bytes landed, e.g. before the fsync returned).
        let data = fs::read(&path).unwrap();
        let (salvaged, _fsck) = read_journal_recovering(&data)
            .unwrap_or_else(|e| panic!("[{point}] journal unrecoverable: {e}"));
        assert!(
            salvaged == vec![batch1.clone()] || salvaged == vec![batch1.clone(), batch2.clone()],
            "[{point}] salvaged batches are not a consistent prefix: {salvaged:?}"
        );

        // Truncate-and-continue: repair, then the retried append lands.
        let (repaired, _) = repair_journal(&data);
        fs::write(&path, &repaired).unwrap();
        if read_journal(&repaired).unwrap().len() == 1 {
            append_to_file(&path, std::slice::from_ref(&batch2)).unwrap();
        }
        let final_batches = read_journal(&fs::read(&path).unwrap()).unwrap();
        assert_eq!(final_batches, vec![batch1.clone(), batch2.clone()], "[{point}]");

        fs::remove_dir_all(&root).unwrap();
    }
}
