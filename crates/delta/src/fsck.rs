//! State-directory fsck: offline consistency checking and repair.
//!
//! [`check_state`] audits every layer a crash (or bit rot) can damage —
//! the `MANIFEST` pointer, each `gen-N/` snapshot's checksummed images
//! and cross-validation invariants, stray publication debris, and
//! optionally a `SPAMDLT` journal — and folds the findings into one
//! [`StateFsck`] report. It never mutates the directory and never
//! panics on damage: damage is what it is *for*.
//!
//! [`repair_state`] re-runs the audit and then applies the
//! truncate-and-continue repairs the formats admit:
//!
//! * stray `MANIFEST.tmp` debris is deleted;
//! * damaged generations are **quarantined** (moved under
//!   `quarantine/`, never deleted — the operator may want the bytes);
//! * a generation whose v3 graph image loaded only by rebuilding a
//!   CRC-failed CSR orientation from the intact one has that image
//!   **rewritten** clean (staged beside it, fsynced, renamed over it);
//! * a damaged or dangling manifest is re-pointed at the newest valid
//!   generation via the same atomic publication path `save` uses;
//! * a journal with a torn tail is truncated back to its trusted
//!   prefix.
//!
//! What repair **cannot** do is conjure data: a directory with no valid
//! generation has no usable state, and the report says so instead of
//! pretending.

use crate::journal;
use crate::state::{sync_dir, write_durable_with, StateDir, StateError};
use spammass_graph::io;
use spammass_graph::retry::retry_io;
use spammass_obs as obs;
use std::fmt;
use std::fs;
use std::path::Path;

/// What the manifest audit found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestStatus {
    /// No manifest file — a fresh directory.
    Absent,
    /// Manifest parses, CRC checks, and points at generation `.0`.
    Ok(u64),
    /// Manifest exists but is malformed or fails its CRC.
    Damaged(String),
}

/// Verdict on one `gen-N/` snapshot directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationCheck {
    /// The generation number (from the directory name).
    pub generation: u64,
    /// `None` when the snapshot loads and cross-validates; otherwise
    /// what failed.
    pub error: Option<String>,
    /// CSR sections of the graph image the loader had to rebuild from
    /// the opposite orientation after a CRC failure (`0`: the image is
    /// intact). Such a generation loads — every reader gets the right
    /// graph — but its bytes on disk are damaged.
    pub rebuilt_sections: usize,
}

impl GenerationCheck {
    /// Whether the snapshot is fully loadable.
    pub fn is_valid(&self) -> bool {
        self.error.is_none()
    }

    /// Whether the snapshot loads *and* every byte of it checked out.
    pub fn is_intact(&self) -> bool {
        self.is_valid() && self.rebuilt_sections == 0
    }
}

/// The full fsck report for a state directory.
#[derive(Debug, Clone, Default)]
pub struct StateFsck {
    /// Manifest verdict.
    pub manifest: Option<ManifestStatus>,
    /// Per-generation verdicts, ascending by generation.
    pub generations: Vec<GenerationCheck>,
    /// Whether a stray `MANIFEST.tmp` (publication debris) is present.
    pub stray_manifest_tmp: bool,
    /// Journal verdict, when a journal path was supplied.
    pub journal: Option<journal::JournalFsck>,
    /// Repair actions applied (empty for a check-only run).
    pub repairs: Vec<String>,
    /// Generations moved to `quarantine/` by a repair.
    pub quarantined: Vec<u64>,
}

impl StateFsck {
    /// The newest generation that loads cleanly, if any.
    pub fn newest_valid_generation(&self) -> Option<u64> {
        self.generations.iter().rev().find(|g| g.is_valid()).map(|g| g.generation)
    }

    /// Whether the manifest points at a generation that is present and
    /// valid (or the directory is fresh).
    pub fn manifest_consistent(&self) -> bool {
        match &self.manifest {
            Some(ManifestStatus::Ok(g)) => {
                self.generations.iter().any(|c| c.generation == *g && c.is_valid())
            }
            // No manifest is fine only when nothing expects one: a
            // directory with no generations.
            Some(ManifestStatus::Absent) => self.generations.is_empty(),
            Some(ManifestStatus::Damaged(_)) => false,
            None => false,
        }
    }

    /// Whether every audited layer checked out: consistent manifest, no
    /// damaged or self-repaired generations, no publication debris, clean
    /// journal (when one was checked).
    pub fn is_healthy(&self) -> bool {
        self.manifest_consistent()
            && self.generations.iter().all(GenerationCheck::is_intact)
            && !self.stray_manifest_tmp
            && self.journal.as_ref().is_none_or(journal::JournalFsck::is_clean)
    }

    /// Whether a load (with recovery) would still find *something*
    /// usable — the "graceful fallback available" signal.
    pub fn recoverable(&self) -> bool {
        self.newest_valid_generation().is_some()
    }
}

impl fmt::Display for StateFsck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.manifest {
            Some(ManifestStatus::Ok(g)) => writeln!(f, "manifest: ok (generation {g})")?,
            Some(ManifestStatus::Absent) => writeln!(f, "manifest: absent")?,
            Some(ManifestStatus::Damaged(e)) => writeln!(f, "manifest: DAMAGED ({e})")?,
            None => writeln!(f, "manifest: not checked")?,
        }
        for c in &self.generations {
            match &c.error {
                None if c.rebuilt_sections > 0 => writeln!(
                    f,
                    "gen-{:04}: ok, image self-repaired ({} sections rebuilt)",
                    c.generation, c.rebuilt_sections
                )?,
                None => writeln!(f, "gen-{:04}: ok", c.generation)?,
                Some(e) => writeln!(f, "gen-{:04}: DAMAGED ({e})", c.generation)?,
            }
        }
        if self.stray_manifest_tmp {
            writeln!(f, "debris: stray {} present", StateDir::MANIFEST_TMP_FILE)?;
        }
        if let Some(j) = &self.journal {
            writeln!(f, "journal: {}{j}", if j.is_clean() { "ok — " } else { "DAMAGED — " })?;
        }
        for r in &self.repairs {
            writeln!(f, "repaired: {r}")?;
        }
        write!(
            f,
            "verdict: {}",
            if self.is_healthy() {
                "healthy"
            } else if self.recoverable() {
                "damaged (recoverable)"
            } else {
                "damaged (NO usable state)"
            }
        )
    }
}

/// Audits `dir` (and optionally the journal at `journal_path`) without
/// mutating anything.
///
/// # Errors
/// Only environment failures (e.g. an unreadable directory) error;
/// damaged state is reported in the [`StateFsck`], not raised.
pub fn check_state(dir: &StateDir, journal_path: Option<&Path>) -> Result<StateFsck, StateError> {
    let mut span = obs::span("fsck.state");
    let manifest = match dir.read_manifest() {
        Ok(Some(g)) => ManifestStatus::Ok(g),
        Ok(None) => ManifestStatus::Absent,
        Err(e) if e.is_corruption() => ManifestStatus::Damaged(e.to_string()),
        Err(e) => return Err(e),
    };
    let mut report = StateFsck { manifest: Some(manifest), ..StateFsck::default() };

    for g in dir.list_generations()? {
        let (error, rebuilt_sections) = match StateDir::load_files(&dir.generation_path(g)) {
            Ok((_, image)) => (None, image.rebuilt_sections),
            Err(e) => (Some(e.to_string()), 0),
        };
        report.generations.push(GenerationCheck { generation: g, error, rebuilt_sections });
    }

    // The manifest may name a generation with no directory at all —
    // surface that as a damaged entry so repair re-points the manifest.
    if let Some(ManifestStatus::Ok(g)) = &report.manifest {
        if !report.generations.iter().any(|c| c.generation == *g) {
            report.generations.push(GenerationCheck {
                generation: *g,
                error: Some("generation directory missing".to_string()),
                rebuilt_sections: 0,
            });
            report.generations.sort_unstable_by_key(|c| c.generation);
        }
    }

    report.stray_manifest_tmp = dir.path().join(StateDir::MANIFEST_TMP_FILE).is_file();

    if let Some(path) = journal_path {
        let data = retry_io("fsck.journal.read", || fs::read(path))?;
        report.journal = Some(journal::fsck_journal(&data));
    }

    let damaged = report.generations.iter().filter(|c| !c.is_valid()).count();
    span.record("generations", report.generations.len() as f64);
    span.record("damaged", damaged as f64);
    obs::counter(obs::names::FSCK_RUNS, 1.0);
    if !report.is_healthy() {
        obs::counter(obs::names::FSCK_UNHEALTHY, 1.0);
    }
    Ok(report)
}

/// Audits `dir` like [`check_state`], then applies every repair the
/// damage admits. The returned report reflects the directory *after*
/// repair (with `repairs` / `quarantined` describing what was done), so
/// `is_healthy()` on it answers "did repair succeed".
///
/// # Errors
/// Environment failures while repairing (a rename or write that fails
/// for non-damage reasons) are errors; un-repairable damage is not.
pub fn repair_state(dir: &StateDir, journal_path: Option<&Path>) -> Result<StateFsck, StateError> {
    let before = check_state(dir, journal_path)?;
    let mut repairs = Vec::new();
    let mut quarantined = Vec::new();

    if before.stray_manifest_tmp {
        retry_io("fsck.repair.tmp", || {
            fs::remove_file(dir.path().join(StateDir::MANIFEST_TMP_FILE))
        })?;
        repairs.push(format!("removed stray {}", StateDir::MANIFEST_TMP_FILE));
    }

    for check in before.generations.iter().filter(|c| !c.is_valid()) {
        let g = check.generation;
        let src = dir.generation_path(g);
        if !src.is_dir() {
            // A dangling manifest target: nothing to quarantine, the
            // manifest rewrite below is the whole repair.
            continue;
        }
        let qdir = dir.path().join(StateDir::QUARANTINE_DIR);
        retry_io("fsck.repair.quarantine", || fs::create_dir_all(&qdir))?;
        // Never clobber an earlier quarantine of the same number.
        let mut dest = qdir.join(format!("gen-{g:04}"));
        let mut suffix = 1;
        while dest.exists() {
            dest = qdir.join(format!("gen-{g:04}.{suffix}"));
            suffix += 1;
        }
        retry_io("fsck.repair.quarantine", || fs::rename(&src, &dest))?;
        quarantined.push(g);
        repairs.push(format!("quarantined gen-{g:04} → {}", dest.display()));
        obs::counter(obs::names::FSCK_GENERATIONS_QUARANTINED, 1.0);
    }

    // A self-repaired image: the load already reconstructed the graph, so
    // write it back clean. Staged beside the damaged file and renamed over
    // it, so a reader that has the old inode mapped is undisturbed.
    for check in before.generations.iter().filter(|c| c.rebuilt_sections > 0) {
        let g = check.generation;
        let path = dir.generation_path(g).join(StateDir::GRAPH_FILE);
        let (graph, _) = io::map_graph_file(&path)?;
        let staged = path.with_extension("bin.tmp");
        write_durable_with(&staged, "fsck.repair.image", |file| io::write_graph_v3(&graph, file))?;
        retry_io("fsck.repair.image", || fs::rename(&staged, &path))?;
        sync_dir(&dir.generation_path(g))?;
        repairs.push(format!("rewrote self-repaired graph image of gen-{g:04}"));
    }

    // Re-point the manifest when it is damaged, dangling, or names a
    // just-quarantined generation — at the newest generation that
    // checked out valid.
    let manifest_target = match &before.manifest {
        Some(ManifestStatus::Ok(g))
            if before.generations.iter().any(|c| c.generation == *g && c.is_valid()) =>
        {
            None // already consistent
        }
        Some(ManifestStatus::Absent) if before.generations.is_empty() => None,
        _ => before.newest_valid_generation(),
    };
    if let Some(g) = manifest_target {
        dir.write_manifest(g)?;
        repairs.push(format!("re-pointed manifest at generation {g}"));
    } else if !before.manifest_consistent() && before.newest_valid_generation().is_none() {
        // Nothing valid to point at: remove a damaged manifest, which
        // leaves a directory the next save starts afresh.
        if matches!(before.manifest, Some(ManifestStatus::Damaged(_))) {
            retry_io("fsck.repair.manifest", || {
                fs::remove_file(dir.path().join(StateDir::MANIFEST_FILE))
            })?;
            repairs.push("removed damaged manifest (no valid generation to point at)".into());
        }
    }

    if let (Some(path), Some(j)) = (journal_path, &before.journal) {
        if !j.is_clean() {
            let data = retry_io("fsck.repair.journal.read", || fs::read(path))?;
            let (repaired, _) = journal::repair_journal(&data);
            retry_io("fsck.repair.journal.write", || fs::write(path, &repaired))?;
            repairs.push(format!(
                "truncated journal to trusted prefix ({} bytes quarantined)",
                j.quarantined_bytes
            ));
        }
    }

    // Audit again so the report reflects the repaired directory.
    let mut after = check_state(dir, journal_path)?;
    obs::counter(obs::names::FSCK_REPAIRS, repairs.len() as f64);
    after.repairs = repairs;
    after.quarantined = quarantined;
    Ok(after)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SavedState;
    use spammass_graph::{GraphBuilder, NodeId};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spammass-fsck-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn populated(name: &str, saves: u64) -> (StateDir, SavedState) {
        let state = StateDir::new(tmpdir(name));
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let core = vec![NodeId(0), NodeId(2)];
        let p = vec![0.25; 4];
        let pc = vec![0.2, 0.1, 0.2, 0.1];
        for _ in 0..saves {
            state.save(&g, &core, &p, &pc).unwrap();
        }
        let loaded = state.load().unwrap();
        (state, loaded)
    }

    #[test]
    fn the_manifest_is_consistent_only_with_a_valid_target() {
        let check = |generation: u64, error: Option<&str>, rebuilt_sections: usize| {
            GenerationCheck { generation, error: error.map(String::from), rebuilt_sections }
        };
        let report = |manifest: Option<ManifestStatus>, generations: Vec<GenerationCheck>| {
            StateFsck { manifest, generations, ..StateFsck::default() }
        };
        let two = || vec![check(1, None, 0), check(2, Some("bad crc"), 0)];

        assert!(report(Some(ManifestStatus::Absent), vec![]).manifest_consistent());
        assert!(!report(Some(ManifestStatus::Absent), two()).manifest_consistent());
        assert!(report(Some(ManifestStatus::Ok(1)), two()).manifest_consistent());
        assert!(!report(Some(ManifestStatus::Ok(2)), two()).manifest_consistent());
        assert!(!report(Some(ManifestStatus::Ok(3)), two()).manifest_consistent());
        assert!(!report(Some(ManifestStatus::Damaged("crc".into())), two()).manifest_consistent());
        assert!(!report(None, vec![]).manifest_consistent());
        // A rebuilt section still loads: consistent, but not healthy.
        let rebuilt = report(Some(ManifestStatus::Ok(1)), vec![check(1, None, 2)]);
        assert!(rebuilt.manifest_consistent());
        assert!(!rebuilt.is_healthy());
    }

    #[test]
    fn intact_means_valid_with_no_rebuilt_section() {
        let check = |error: Option<&str>, rebuilt_sections: usize| GenerationCheck {
            generation: 1,
            error: error.map(String::from),
            rebuilt_sections,
        };
        assert!(check(None, 0).is_intact());
        let rebuilt = check(None, 1);
        assert!(rebuilt.is_valid() && !rebuilt.is_intact());
        let broken = check(Some("truncated"), 0);
        assert!(!broken.is_valid() && !broken.is_intact());
    }

    #[test]
    fn clean_directory_is_healthy() {
        let (state, _) = populated("clean", 2);
        let report = check_state(&state, None).unwrap();
        assert!(report.is_healthy(), "{report}");
        assert!(report.recoverable());
        assert_eq!(report.manifest, Some(ManifestStatus::Ok(2)));
        assert_eq!(report.newest_valid_generation(), Some(2));
        assert!(report.to_string().contains("verdict: healthy"));
        fs::remove_dir_all(state.path()).unwrap();
    }

    #[test]
    fn corrupt_current_generation_is_flagged_and_repaired() {
        let (state, expected) = populated("quarantine", 2);
        // Damage the published generation's PageRank image.
        let victim = state.generation_path(2).join(StateDir::PAGERANK_FILE);
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&victim, &bytes).unwrap();

        let report = check_state(&state, None).unwrap();
        assert!(!report.is_healthy(), "{report}");
        assert!(report.recoverable(), "gen-1 should still be valid");
        assert_eq!(report.newest_valid_generation(), Some(1));

        let repaired = repair_state(&state, None).unwrap();
        assert!(repaired.is_healthy(), "{repaired}");
        assert_eq!(repaired.quarantined, vec![2]);
        assert!(state.path().join(StateDir::QUARANTINE_DIR).join("gen-0002").is_dir());
        // The manifest now points at gen-1, and a plain strict load works.
        assert_eq!(state.read_manifest().unwrap(), Some(1));
        let back = state.load().unwrap();
        assert_eq!(back.core, expected.core);
        assert_eq!(back.pagerank, expected.pagerank);
        // The next save must not collide with the quarantined number.
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let next = state.save(&g, &expected.core, &expected.pagerank, &expected.core_pagerank);
        assert_eq!(next.unwrap(), 2, "gen-2 was quarantined away, its slot is free again");
        fs::remove_dir_all(state.path()).unwrap();
    }

    #[test]
    fn self_repaired_image_is_reported_and_rewritten() {
        let (state, expected) = populated("selfrepair", 2);
        let victim = state.generation_path(2).join(StateDir::GRAPH_FILE);
        let clean = fs::read(&victim).unwrap();
        // Flip one byte inside the out-targets section (table entry 1;
        // its offset field sits at 32 + 24 + 8).
        let out_targets = spammass_graph::le::get_u64(&clean, 64) as usize;
        let mut bytes = clean.clone();
        bytes[out_targets] ^= 0x01;
        // Unlink before writing: `expected.graph` still maps this inode.
        fs::remove_file(&victim).unwrap();
        fs::write(&victim, &bytes).unwrap();

        // The loader rebuilds the orientation: every reader gets the graph.
        let loaded = state.load().unwrap();
        assert_eq!(io::graph_to_bytes_v3(&loaded.graph), clean);
        assert_eq!(loaded.pagerank, expected.pagerank);

        // fsck sees what the loader saw: usable, not healthy.
        let report = check_state(&state, None).unwrap();
        assert!(!report.is_healthy(), "{report}");
        assert!(report.recoverable());
        assert_eq!(report.newest_valid_generation(), Some(2));
        let text = report.to_string();
        assert!(text.contains("gen-0002: ok, image self-repaired (2 sections rebuilt)"), "{text}");
        assert!(text.contains("gen-0001: ok\n"), "{text}");
        assert!(text.contains("verdict: damaged (recoverable)"), "{text}");

        // Repair rewrites the image in place; nothing is quarantined and
        // the manifest keeps naming the newest generation.
        let repaired = repair_state(&state, None).unwrap();
        assert!(repaired.is_healthy(), "{repaired}");
        assert!(repaired.quarantined.is_empty());
        assert!(repaired.repairs.iter().any(|r| r.contains("gen-0002")), "{repaired}");
        assert_eq!(state.read_manifest().unwrap(), Some(2));
        assert_eq!(fs::read(&victim).unwrap(), clean);

        // A truncated image is not self-repairable: the length sentinel
        // rejects it before any section is looked at.
        fs::remove_file(&victim).unwrap();
        fs::write(&victim, &clean[..clean.len() - 5]).unwrap();
        let report = check_state(&state, None).unwrap();
        let damaged = report.generations.iter().find(|c| c.generation == 2).unwrap();
        assert!(
            damaged.error.as_deref().is_some_and(|e| e.contains("length sentinel")),
            "{report}"
        );
        fs::remove_dir_all(state.path()).unwrap();
    }

    #[test]
    fn dangling_manifest_is_repointed() {
        let (state, _) = populated("dangling", 2);
        fs::remove_dir_all(state.generation_path(2)).unwrap();
        let report = check_state(&state, None).unwrap();
        assert!(!report.is_healthy());
        let damaged: Vec<_> =
            report.generations.iter().filter(|c| !c.is_valid()).map(|c| c.generation).collect();
        assert_eq!(damaged, vec![2]);

        let repaired = repair_state(&state, None).unwrap();
        assert!(repaired.is_healthy(), "{repaired}");
        assert_eq!(state.read_manifest().unwrap(), Some(1));
        assert!(repaired.quarantined.is_empty(), "nothing on disk to quarantine");
        fs::remove_dir_all(state.path()).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_rewritten() {
        let (state, _) = populated("badmanifest", 1);
        fs::write(state.path().join(StateDir::MANIFEST_FILE), b"SPAMMANIFEST 1\ngarbage\n")
            .unwrap();
        let report = check_state(&state, None).unwrap();
        assert!(matches!(report.manifest, Some(ManifestStatus::Damaged(_))), "{report}");
        assert!(!report.is_healthy());

        let repaired = repair_state(&state, None).unwrap();
        assert!(repaired.is_healthy(), "{repaired}");
        assert_eq!(state.read_manifest().unwrap(), Some(1));
        fs::remove_dir_all(state.path()).unwrap();
    }

    #[test]
    fn stray_manifest_tmp_is_swept() {
        let (state, _) = populated("straytmp", 1);
        fs::write(state.path().join(StateDir::MANIFEST_TMP_FILE), b"half-published").unwrap();
        let report = check_state(&state, None).unwrap();
        assert!(report.stray_manifest_tmp);
        assert!(!report.is_healthy());
        let repaired = repair_state(&state, None).unwrap();
        assert!(repaired.is_healthy(), "{repaired}");
        assert!(!state.path().join(StateDir::MANIFEST_TMP_FILE).exists());
        fs::remove_dir_all(state.path()).unwrap();
    }

    #[test]
    fn torn_journal_is_truncated() {
        let (state, _) = populated("journal", 1);
        let jpath = state.path().join("deltas.spamdlt");
        let batches = vec![vec![
            crate::DeltaRecord::AddEdge { from: NodeId(0), to: NodeId(2) },
            crate::DeltaRecord::CoreAdd { node: NodeId(3) },
        ]];
        let mut bytes = journal::journal_to_bytes(&batches);
        let full = bytes.clone();
        bytes.extend_from_slice(&full[12..full.len() - 5]); // torn second frame
        fs::write(&jpath, &bytes).unwrap();

        let report = check_state(&state, Some(&jpath)).unwrap();
        assert!(!report.is_healthy());
        assert!(!report.journal.as_ref().unwrap().is_clean());

        let repaired = repair_state(&state, Some(&jpath)).unwrap();
        assert!(repaired.is_healthy(), "{repaired}");
        let back = journal::read_journal(&fs::read(&jpath).unwrap()).unwrap();
        assert_eq!(back, batches);
        fs::remove_dir_all(state.path()).unwrap();
    }

    #[test]
    fn everything_damaged_is_reported_not_panicked() {
        let root = tmpdir("hopeless");
        fs::create_dir_all(root.join("gen-0001")).unwrap();
        fs::write(root.join("gen-0001").join(StateDir::GRAPH_FILE), b"junk").unwrap();
        fs::write(root.join(StateDir::MANIFEST_FILE), b"junk").unwrap();
        let state = StateDir::new(&root);
        let report = check_state(&state, None).unwrap();
        assert!(!report.is_healthy());
        assert!(!report.recoverable());
        assert!(report.to_string().contains("NO usable state"), "{report}");
        let repaired = repair_state(&state, None).unwrap();
        // Repair sweeps the wreckage (quarantine + manifest removal),
        // leaving a clean-but-empty directory: healthy, yet with nothing
        // to fall back on — `recoverable()` is the caller's real signal.
        assert!(repaired.is_healthy(), "{repaired}");
        assert!(!repaired.recoverable(), "no data survived");
        assert_eq!(repaired.quarantined, vec![1]);
        assert!(root.join(StateDir::QUARANTINE_DIR).join("gen-0001").is_dir());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_generation_holding_a_retired_image_is_quarantined() {
        // A v2 header where the published image should be: unlike a
        // CRC-damaged v3 orientation there is nothing to rebuild from, so
        // the generation is invalid and repair falls back past it.
        let (state, expected) = populated("retired", 2);
        let mut v2 = b"SPAMGRPH".to_vec();
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.extend_from_slice(&4u64.to_le_bytes());
        v2.extend_from_slice(&4u64.to_le_bytes());
        fs::write(state.generation_path(2).join(StateDir::GRAPH_FILE), v2).unwrap();

        let report = check_state(&state, None).unwrap();
        assert!(!report.is_healthy(), "{report}");
        assert!(report.recoverable(), "{report}");
        assert_eq!(report.newest_valid_generation(), Some(1));
        assert!(report.to_string().contains("unsupported version 2"), "{report}");

        let repaired = repair_state(&state, None).unwrap();
        assert!(repaired.is_healthy(), "{repaired}");
        assert_eq!(repaired.quarantined, vec![2]);
        assert_eq!(state.read_manifest().unwrap(), Some(1));
        assert_eq!(state.load().unwrap().pagerank, expected.pagerank);
        fs::remove_dir_all(state.path()).unwrap();
    }

    #[test]
    fn a_fresh_directory_is_healthy() {
        // A directory that does not exist yet.
        let state = StateDir::new(tmpdir("fresh"));
        let report = check_state(&state, None).unwrap();
        assert!(report.is_healthy(), "{report}");
        assert!(!report.recoverable(), "nothing saved yet");
    }

    #[test]
    fn a_flat_layout_is_not_state() {
        // The four files of a generation lying flat at the root with no
        // MANIFEST — the layout before generations. Nothing reads it.
        let (gen_state, _) = populated("flat-src", 1);
        let flat_root = tmpdir("flat");
        fs::create_dir_all(&flat_root).unwrap();
        for f in [
            StateDir::GRAPH_FILE,
            StateDir::PAGERANK_FILE,
            StateDir::CORE_PAGERANK_FILE,
            StateDir::CORE_FILE,
        ] {
            fs::copy(gen_state.generation_path(1).join(f), flat_root.join(f)).unwrap();
        }
        let flat = StateDir::new(&flat_root);
        assert!(matches!(flat.load(), Err(StateError::Io(_))));
        assert!(matches!(flat.load_with_recovery(), Err(StateError::NoUsableGeneration { .. })));
        let report = check_state(&flat, None).unwrap();
        assert!(!report.recoverable(), "{report}");
        assert_eq!(report.to_string(), "manifest: absent\nverdict: healthy");
        fs::remove_dir_all(gen_state.path()).unwrap();
        fs::remove_dir_all(&flat_root).unwrap();
    }
}
