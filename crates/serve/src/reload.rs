//! Staleness detection and snapshot production for the daemon.
//!
//! A [`Reloader`] owns the two refresh paths:
//!
//! 1. **External publish** — some other process (a `spammass update`
//!    cron job, a migration) published a newer generation through the
//!    crash-safe manifest. The reloader sees the higher generation
//!    number and just loads it.
//! 2. **Journal tail** — the watched `SPAMDLT` journal has records past
//!    what this daemon already consumed. The reloader replays exactly
//!    the `spammass update` flow in-process: lenient state load, warm
//!    [`MassEstimator::update`] over the fresh records, crash-safe
//!    `StateDir::save`, then a load of the generation it just
//!    published. Consumed-record accounting is positional (the journal
//!    is append-only), so a journal that starts existing only after the
//!    daemon is already up replays from its first record.
//!
//! Either path ends in a brand-new [`Snapshot`]; the caller owns the
//! actual swap. `check` holds no lock shared with readers — the daemon
//! keeps answering from the old snapshot for the whole solve.

use crate::snapshot::Snapshot;
use crate::ServeError;
use spammass_core::detector::DetectorConfig;
use spammass_core::estimate::{EstimatorConfig, MassEstimator};
use spammass_delta::{read_journal_with, DeltaRecord, StateDir};
use spammass_graph::io::ReadOptions;
use spammass_pagerank::PageRankConfig;
use std::fs;
use std::path::PathBuf;

/// Everything a reload pass needs to re-estimate and re-snapshot.
pub struct Reloader {
    state: StateDir,
    journal: Option<PathBuf>,
    consumed: usize,
    /// Byte length of the journal the last published pass read; like
    /// `consumed`, advanced only after that pass's publish.
    consumed_len: Option<u64>,
    detector: DetectorConfig,
    gamma: f64,
    damping: f64,
    threads: usize,
}

impl Reloader {
    /// A reloader over `state`, optionally tailing `journal`.
    /// `threads = 0` auto-sizes the solver pool.
    pub fn new(
        state: StateDir,
        journal: Option<PathBuf>,
        detector: DetectorConfig,
        gamma: f64,
        damping: f64,
        threads: usize,
    ) -> Reloader {
        Reloader {
            state,
            journal,
            consumed: 0,
            consumed_len: None,
            detector,
            gamma,
            damping,
            threads,
        }
    }

    /// Loads the manifest's current generation as the daemon's first
    /// snapshot.
    pub fn initial_snapshot(&self) -> Result<Snapshot, ServeError> {
        Snapshot::load(&self.state, &self.detector, self.damping)
    }

    /// Journal records consumed so far (for tests and stats).
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// One staleness check against the snapshot currently serving as
    /// generation `current`. Returns a replacement snapshot when either
    /// refresh path produced one, `Ok(None)` when everything is fresh.
    pub fn check(&mut self, current: u64) -> Result<Option<Snapshot>, ServeError> {
        // Path 1: a newer externally published generation. A transient
        // or corrupt manifest read is "nothing new yet" — the watcher
        // must outlive a publisher mid-crash.
        if let Ok(Some(g)) = self.state.read_manifest() {
            if g > current {
                return Snapshot::load(&self.state, &self.detector, self.damping).map(Some);
            }
        }

        // Path 2: fresh journal records. The journal is append-only, so
        // an unchanged length means nothing to read, CRC-check or decode.
        let Some(journal) = self.journal.clone() else { return Ok(None) };
        let not_found = |e: &std::io::Error| e.kind() == std::io::ErrorKind::NotFound;
        match fs::metadata(&journal) {
            Ok(meta) if Some(meta.len()) == self.consumed_len => return Ok(None),
            Ok(_) => {}
            Err(e) if not_found(&e) => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let data = match fs::read(&journal) {
            Ok(d) => d,
            Err(e) if not_found(&e) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let (batches, _report) = read_journal_with(&data, &ReadOptions::default())?;
        let records: Vec<DeltaRecord> = batches.into_iter().flatten().collect();
        if records.len() <= self.consumed {
            return Ok(None);
        }
        let fresh = &records[self.consumed..];

        // The spammass-update flow, in-process: lenient load → warm
        // update → crash-safe publish → snapshot the new generation.
        let (saved, _recovery) = self.state.load_with_recovery()?;
        let config = EstimatorConfig::scaled(self.gamma)
            .with_pagerank(PageRankConfig::with_damping(self.damping).threads(self.threads));
        let report = MassEstimator::new(config).update(saved, fresh, &self.detector)?;
        self.state.save(
            &report.graph,
            &report.core,
            &report.estimate.pagerank,
            &report.estimate.core_pagerank,
        )?;
        self.consumed = records.len();
        self.consumed_len = Some(data.len() as u64);
        Snapshot::load(&self.state, &self.detector, self.damping).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spammass_delta::journal_to_bytes;
    use spammass_graph::{GraphBuilder, NodeId};
    use std::path::Path;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("spammass-serve-reload-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seed_state(dir: &Path) -> StateDir {
        // A real estimate so the warm update has solver-consistent
        // vectors: 5 hosts, boosters 2..=4 → 0, good pair 1 ↔ 3, core {3}.
        let edges: Vec<(u32, u32)> = vec![(2, 0), (3, 0), (4, 0), (0, 2), (1, 3), (3, 1), (3, 4)];
        let g = GraphBuilder::from_edges(5, &edges);
        let est =
            MassEstimator::new(EstimatorConfig::scaled(0.85)).estimate(&g, &[NodeId(3)]).unwrap();
        let state = StateDir::new(dir);
        state.save(&g, &[NodeId(3)], &est.pagerank, &est.core_pagerank).unwrap();
        state
    }

    #[test]
    fn fresh_state_is_a_no_op() {
        let dir = tmpdir("noop");
        let state = seed_state(&dir);
        let mut r = Reloader::new(
            state,
            Some(dir.join("missing.dlt")),
            DetectorConfig { rho: 1.0, tau: 0.5 },
            0.85,
            0.85,
            1,
        );
        let snap = r.initial_snapshot().unwrap();
        assert_eq!(snap.generation, 1);
        assert!(r.check(snap.generation).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn external_publish_is_picked_up() {
        let dir = tmpdir("external");
        let state = seed_state(&dir);
        let mut r = Reloader::new(
            state.clone(),
            None,
            DetectorConfig { rho: 1.0, tau: 0.5 },
            0.85,
            0.85,
            1,
        );
        let snap = r.initial_snapshot().unwrap();
        // Someone else publishes generation 2.
        let loaded = state.load().unwrap();
        state.save(&loaded.graph, &loaded.core, &loaded.pagerank, &loaded.core_pagerank).unwrap();
        let next = r.check(snap.generation).unwrap().expect("new generation seen");
        assert_eq!(next.generation, 2);
        assert!(r.check(next.generation).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_growth_updates_and_publishes() {
        let dir = tmpdir("journal");
        let state = seed_state(&dir);
        let journal = dir.join("delta.dlt");
        let mut r = Reloader::new(
            state.clone(),
            Some(journal.clone()),
            DetectorConfig { rho: 1.0, tau: 0.5 },
            0.85,
            0.85,
            1,
        );
        let snap = r.initial_snapshot().unwrap();
        assert_eq!(snap.node_count(), 5);

        // The journal appears only now — all of it is new.
        let batch = vec![
            DeltaRecord::AddNode { node: NodeId(5) },
            DeltaRecord::AddEdge { from: NodeId(5), to: NodeId(0) },
        ];
        fs::write(&journal, journal_to_bytes(&[batch])).unwrap();
        let next = r.check(snap.generation).unwrap().expect("journal records consumed");
        assert_eq!(next.generation, 2);
        assert_eq!(next.node_count(), 6);
        assert_eq!(r.consumed(), 2);
        // Same journal again: nothing new.
        assert!(r.check(next.generation).unwrap().is_none());

        // Append a second batch: only the tail is replayed.
        let more = vec![vec![DeltaRecord::AddEdge { from: NodeId(1), to: NodeId(0) }]];
        spammass_delta::append_to_file(&journal, &more).unwrap();
        let third = r.check(next.generation).unwrap().expect("appended batch consumed");
        assert_eq!(third.generation, 3);
        assert_eq!(third.edge_count(), next.edge_count() + 1);
        assert_eq!(r.consumed(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_unchanged_journal_is_not_read_again() {
        use spammass_obs as obs;
        let dir = tmpdir("journal-len");
        let state = seed_state(&dir);
        let journal = dir.join("delta.dlt");
        let detector = DetectorConfig { rho: 1.0, tau: 0.5 };
        let mut r = Reloader::new(state, Some(journal.clone()), detector, 0.85, 0.85, 1);
        let snap = r.initial_snapshot().unwrap();
        fs::write(&journal, journal_to_bytes(&[vec![DeltaRecord::AddNode { node: NodeId(5) }]]))
            .unwrap();

        let collector = obs::Collector::builder().build();
        let guard = collector.install();
        let reads = || collector.spans().iter().filter(|s| s.name == "delta.journal.read").count();

        let next = r.check(snap.generation).unwrap().expect("journal records consumed");
        assert_eq!(reads(), 1);
        // No append in between: the second check stops at the length.
        assert!(r.check(next.generation).unwrap().is_none());
        assert_eq!(reads(), 1);
        // An append in between: read again, only the tail replayed.
        let more = vec![vec![DeltaRecord::AddEdge { from: NodeId(5), to: NodeId(0) }]];
        spammass_delta::append_to_file(&journal, &more).unwrap();
        let third = r.check(next.generation).unwrap().expect("appended batch consumed");
        assert_eq!((reads(), r.consumed(), third.generation), (2, 2, 3));
        drop(guard);
        fs::remove_dir_all(&dir).unwrap();
    }
}
