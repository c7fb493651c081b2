//! Saved estimation state: crash-safe, generation-numbered snapshots.
//!
//! A **state directory** holds everything `spammass update` needs to
//! re-estimate without starting cold. It is organized as immutable
//! snapshot *generations* published through a tiny CRC-guarded pointer
//! file, so a crash at any syscall boundary leaves the directory
//! loadable:
//!
//! ```text
//! state/
//!   MANIFEST       pointer to the current generation (CRC-guarded,
//!                  published via write-temp → fsync → rename)
//!   gen-0001/      a complete, self-consistent snapshot
//!     graph.bin    SPAMGRPH v3 image of the graph the scores belong to
//!     p.bin        SPAMSCRS image of the PageRank vector p
//!     p_core.bin   SPAMSCRS image of the core-biased vector p′
//!     core.txt     good-core node ids, one per line, `#` comments
//!   gen-0002/      the next snapshot (published or in flight)
//!   quarantine/    damaged generations moved aside by `fsck --repair`
//! ```
//!
//! ## Atomic publication protocol
//!
//! [`StateDir::save`] never touches a published generation. It writes
//! the complete file set into a *fresh* `gen-N+1/` directory, fsyncs
//! every file, then publishes by writing `MANIFEST.tmp`, fsyncing it,
//! and renaming it over `MANIFEST` (rename within a directory is atomic
//! on POSIX), finally fsyncing the directory. Readers that follow the
//! manifest therefore always open a complete `{graph, scores, core}`
//! set, and a background update can build `gen-N+1` while `gen-N`
//! serves traffic — the epoch-swap primitive a long-lived server needs.
//! The previous generation is retained as a fallback; older ones are
//! pruned best-effort after publication.
//!
//! A crash mid-save leaves either (a) a partial unpublished `gen-N+1`
//! plus an intact manifest → readers keep using `gen-N`, the next save
//! clears the debris; or (b) a fully published `gen-N+1` → readers see
//! the new state. There is no interleaving where a reader observes a
//! mix. Every write/fsync/rename in the sequence passes through a
//! [`crate::failpoint`], and the crash-torture suite kills the sequence
//! at each of them to hold this invariant.
//!
//! A directory without a `MANIFEST` holds no state: [`StateDir::load`]
//! fails on it, and [`StateDir::load_with_recovery`] still scans its
//! `gen-*` directories. The four files lying flat at the root — the
//! layout before generations — are not read.
//!
//! `SPAMSCRS` is the score-vector sibling of the `SPAMGRPH` image:
//! little-endian, CRC-32 checksummed, with a trailing length sentinel so
//! truncation is caught before decoding.
//!
//! ## SPAMSCRS binary layout
//!
//! ```text
//! offset    field
//! 0         magic  b"SPAMSCRS"
//! 8         version u32 LE (1)
//! 12        count u64 LE
//! 20        values: count × f64 LE
//! 20 + 8·n  crc32 u32 LE — CRC-32 (IEEE) over bytes [0, 20 + 8·n)
//! 24 + 8·n  total_len u64 LE — length of the whole image (32 + 8·n)
//! ```
//!
//! Loading cross-validates the pieces: both vectors must match the
//! graph's node count, every stored score must be finite, and core ids
//! must be in range — a state directory assembled from mismatched runs
//! fails loudly instead of warm-starting a solve from garbage.

use crate::failpoint;
use spammass_graph::crc32::crc32;
use spammass_graph::io::{self, ImageLoadStats};
use spammass_graph::le::{get_u32, get_u64};
use spammass_graph::retry::retry_io;
use spammass_graph::{Graph, GraphError, NodeId};
use spammass_obs as obs;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Magic prefix of the score-vector format.
const MAGIC: &[u8; 8] = b"SPAMSCRS";
/// Current score-vector format version.
const VERSION: u32 = 1;
/// Fixed header size (magic + version + count).
const HEADER_LEN: usize = 20;
/// Trailer: CRC-32 (4 bytes) + length sentinel (8 bytes).
const TRAILER_LEN: usize = 12;

/// First line of a manifest file.
const MANIFEST_HEADER: &str = "SPAMMANIFEST 1";

/// Published generations kept around after a save: the new one plus one
/// fallback. Anything older is pruned best-effort.
const RETAINED_GENERATIONS: u64 = 2;

/// Serializes a score vector into the checksummed `SPAMSCRS` image.
pub fn scores_to_bytes(scores: &[f64]) -> Vec<u8> {
    let total = HEADER_LEN + scores.len() * 8 + TRAILER_LEN;
    let mut buf = Vec::with_capacity(total);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(scores.len() as u64).to_le_bytes());
    for &s in scores {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    let checksum = crc32(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf.extend_from_slice(&(total as u64).to_le_bytes());
    debug_assert_eq!(buf.len(), total);
    buf
}

/// Renders a good core as a generation's `core.txt`: a comment line, then
/// one node id per line.
pub fn core_to_text(core: &[NodeId]) -> String {
    let mut text = String::from("# good core (node ids)\n");
    for x in core {
        text.push_str(&format!("{x}\n"));
    }
    text
}

/// Deserializes a `SPAMSCRS` image, verifying sentinel, CRC, payload
/// length, and value finiteness before returning the vector.
pub fn scores_from_bytes(data: &[u8]) -> Result<Vec<f64>, GraphError> {
    if data.len() < HEADER_LEN + TRAILER_LEN {
        return Err(GraphError::Corrupt("score image shorter than header".into()));
    }
    if &data[..8] != MAGIC {
        return Err(GraphError::Corrupt("bad score-image magic".into()));
    }
    let version = get_u32(data, 8);
    if version != VERSION {
        return Err(GraphError::Corrupt(format!("unsupported score-image version {version}")));
    }
    let sentinel = get_u64(data, data.len() - 8);
    if sentinel != data.len() as u64 {
        return Err(GraphError::Corrupted {
            field: "length sentinel",
            expected: sentinel,
            got: data.len() as u64,
        });
    }
    let stored_crc = get_u32(data, data.len() - TRAILER_LEN);
    let computed = crc32(&data[..data.len() - TRAILER_LEN]);
    if stored_crc != computed {
        return Err(GraphError::Corrupted {
            field: "crc32",
            expected: stored_crc as u64,
            got: computed as u64,
        });
    }
    let count = get_u64(data, 12) as usize;
    let expected_payload = count
        .checked_mul(8)
        .and_then(|b| b.checked_add(HEADER_LEN))
        .ok_or_else(|| GraphError::Corrupt("score byte count overflows".into()))?;
    if data.len() - TRAILER_LEN != expected_payload {
        return Err(GraphError::Corrupted {
            field: "score payload length",
            expected: expected_payload as u64,
            got: (data.len() - TRAILER_LEN) as u64,
        });
    }
    let mut scores = Vec::with_capacity(count);
    for i in 0..count {
        let mut b = [0u8; 8];
        b.copy_from_slice(&data[HEADER_LEN + i * 8..HEADER_LEN + i * 8 + 8]);
        let v = f64::from_le_bytes(b);
        if !v.is_finite() {
            return Err(GraphError::Corrupt(format!("non-finite score {v} at index {i}")));
        }
        scores.push(v);
    }
    Ok(scores)
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failures of the crash-safe state pipeline.
///
/// Splits the *pointer* layer (manifest, generation directories) from
/// the *payload* layer (the checksummed images inside a generation,
/// which keep reporting through [`GraphError`]), so recovery tooling can
/// tell "the pointer is damaged, scan for a usable generation" apart
/// from "this generation's data is damaged, quarantine it".
#[derive(Debug)]
pub enum StateError {
    /// The `MANIFEST` file exists but is malformed or fails its CRC.
    Manifest {
        /// What was wrong with it.
        message: String,
    },
    /// The manifest points at a generation directory that is absent.
    MissingGeneration {
        /// The generation the manifest named.
        generation: u64,
    },
    /// Recovery scanned every candidate (manifest target, other
    /// generations) and none loaded.
    NoUsableGeneration {
        /// One line per candidate tried, with its failure.
        tried: Vec<String>,
    },
    /// A generation's payload failed to load (corrupt image, mismatched
    /// vectors, bad core file).
    Graph(GraphError),
    /// An underlying I/O failure (including injected faults).
    Io(std::io::Error),
}

impl StateError {
    fn manifest(message: impl Into<String>) -> StateError {
        StateError::Manifest { message: message.into() }
    }

    /// Whether this error describes damaged on-disk state (as opposed to
    /// a plain I/O or environment failure) — the quarantine signal.
    pub fn is_corruption(&self) -> bool {
        match self {
            StateError::Manifest { .. }
            | StateError::MissingGeneration { .. }
            | StateError::NoUsableGeneration { .. } => true,
            StateError::Graph(e) => e.is_corruption(),
            StateError::Io(_) => false,
        }
    }
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Manifest { message } => write!(f, "state manifest: {message}"),
            StateError::MissingGeneration { generation } => {
                write!(f, "state manifest points at missing generation {generation}")
            }
            StateError::NoUsableGeneration { tried } => {
                write!(f, "no usable state generation ({} candidates tried)", tried.len())?;
                for t in tried {
                    write!(f, "\n  {t}")?;
                }
                Ok(())
            }
            StateError::Graph(e) => write!(f, "{e}"),
            StateError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for StateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StateError::Graph(e) => Some(e),
            StateError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for StateError {
    fn from(e: GraphError) -> Self {
        match e {
            GraphError::Io(io) => StateError::Io(io),
            other => StateError::Graph(other),
        }
    }
}

impl From<std::io::Error> for StateError {
    fn from(e: std::io::Error) -> Self {
        StateError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// Serializes the manifest pointing at `generation`: two canonical text
/// lines plus a CRC-32 line covering them.
pub fn manifest_to_bytes(generation: u64) -> Vec<u8> {
    let body = format!("{MANIFEST_HEADER}\ngeneration {generation}\n");
    let crc = crc32(body.as_bytes());
    format!("{body}crc {crc:#010x}\n").into_bytes()
}

/// Parses and verifies a manifest image, returning the generation it
/// points at.
pub fn manifest_from_bytes(data: &[u8]) -> Result<u64, StateError> {
    let text = std::str::from_utf8(data).map_err(|_| StateError::manifest("not utf-8"))?;
    let mut lines = text.lines();
    match lines.next() {
        Some(MANIFEST_HEADER) => {}
        other => return Err(StateError::manifest(format!("bad header {other:?}"))),
    }
    let generation: u64 = lines
        .next()
        .and_then(|l| l.strip_prefix("generation "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| StateError::manifest("missing or malformed generation line"))?;
    let stored_crc: u32 = lines
        .next()
        .and_then(|l| l.strip_prefix("crc 0x"))
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or_else(|| StateError::manifest("missing or malformed crc line"))?;
    if lines.next().is_some() {
        return Err(StateError::manifest("trailing content after crc line"));
    }
    let body = format!("{MANIFEST_HEADER}\ngeneration {generation}\n");
    let computed = crc32(body.as_bytes());
    if stored_crc != computed {
        return Err(StateError::manifest(format!(
            "crc mismatch (stored {stored_crc:#010x}, computed {computed:#010x})"
        )));
    }
    Ok(generation)
}

// ---------------------------------------------------------------------------
// Durable writes (failpointed)
// ---------------------------------------------------------------------------

/// Writes `bytes` to `path` and fsyncs (see [`write_durable_with`]).
pub(crate) fn write_durable(path: &Path, bytes: &[u8], point: &str) -> std::io::Result<()> {
    write_durable_with(path, point, |mut file| file.write_all(bytes).map(|()| bytes.len() as u64))
}

/// Creates `path`, lets `write` fill it (returning the length written)
/// and fsyncs, with failpoints at the syscall boundaries: `{point}`
/// before the create, `{point}.torn` mid-write (only the first half of
/// the payload lands and is synced, simulating a torn page flush), and
/// `{point}.fsync` before the sync.
pub(crate) fn write_durable_with(
    path: &Path,
    point: &str,
    write: impl FnOnce(&fs::File) -> std::io::Result<u64>,
) -> std::io::Result<()> {
    failpoint::hit(point)?;
    let file = retry_io(point, || fs::File::create(path))?;
    if let Err(e) = failpoint::hit(&format!("{point}.torn")) {
        if let Ok(len) = write(&file) {
            let _ = file.set_len(len / 2);
        }
        let _ = file.sync_all();
        return Err(e);
    }
    write(&file)?;
    failpoint::hit(&format!("{point}.fsync"))?;
    retry_io(point, || file.sync_all())?;
    Ok(())
}

/// Fsyncs a directory so a just-renamed entry inside it is durable.
/// Non-Unix platforms have no stable directory-fsync story; the rename
/// itself is still atomic there.
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        retry_io("state.dirsync", || fs::File::open(dir))?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// StateDir
// ---------------------------------------------------------------------------

/// A state directory on disk.
#[derive(Debug, Clone)]
pub struct StateDir {
    root: PathBuf,
}

/// Everything a warm re-estimation needs, loaded and cross-validated.
#[derive(Debug, Clone)]
pub struct SavedState {
    /// The graph the saved scores were solved on.
    pub graph: Graph,
    /// Good-core node ids (sorted, deduplicated).
    pub core: Vec<NodeId>,
    /// PageRank vector `p` (uniform jump).
    pub pagerank: Vec<f64>,
    /// Core-biased vector `p′` (good-core jump).
    pub core_pagerank: Vec<f64>,
}

/// How a [`StateDir::load_with_recovery`] call found a usable snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The generation the manifest pointed at (`None`: manifest absent
    /// or unreadable).
    pub requested: Option<u64>,
    /// The generation actually loaded.
    pub used: u64,
    /// Whether the load deviated from the manifest's instruction — the
    /// signal that the directory needs an `fsck --repair`.
    pub recovered: bool,
    /// One line per candidate that failed along the way.
    pub errors: Vec<String>,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.recovered {
            write!(f, "recovered: fell back to generation {}", self.used)?;
        } else {
            write!(f, "loaded generation {}", self.used)?;
        }
        for e in &self.errors {
            write!(f, "\n  {e}")?;
        }
        Ok(())
    }
}

impl StateDir {
    /// File holding the graph image.
    pub const GRAPH_FILE: &'static str = "graph.bin";
    /// File holding the PageRank vector.
    pub const PAGERANK_FILE: &'static str = "p.bin";
    /// File holding the core-biased vector.
    pub const CORE_PAGERANK_FILE: &'static str = "p_core.bin";
    /// File holding the good-core node ids.
    pub const CORE_FILE: &'static str = "core.txt";
    /// The published pointer to the current generation.
    pub const MANIFEST_FILE: &'static str = "MANIFEST";
    /// Scratch name the manifest is staged under before the rename.
    pub const MANIFEST_TMP_FILE: &'static str = "MANIFEST.tmp";
    /// Directory damaged generations are moved into by `fsck --repair`.
    pub const QUARANTINE_DIR: &'static str = "quarantine";

    /// Points at (not necessarily existing yet) `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        StateDir { root: root.into() }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// The directory of generation `generation`.
    pub fn generation_path(&self, generation: u64) -> PathBuf {
        self.root.join(format!("gen-{generation:04}"))
    }

    /// Parses a directory name of the `gen-N` form.
    pub fn parse_generation_name(name: &str) -> Option<u64> {
        name.strip_prefix("gen-")?.parse().ok()
    }

    /// Generations present on disk (published or debris), ascending.
    pub fn list_generations(&self) -> Result<Vec<u64>, StateError> {
        let mut gens = Vec::new();
        let entries = match fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(gens),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let entry = entry?;
            if let Some(g) = entry.file_name().to_str().and_then(Self::parse_generation_name) {
                if entry.file_type()?.is_dir() {
                    gens.push(g);
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Reads and verifies the manifest. `Ok(None)` when no manifest file
    /// exists (a fresh directory); `Err` when one exists but is damaged.
    pub fn read_manifest(&self) -> Result<Option<u64>, StateError> {
        let path = self.root.join(Self::MANIFEST_FILE);
        let data = match retry_io("state.manifest.read", || fs::read(&path)) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        manifest_from_bytes(&data).map(Some)
    }

    /// Publishes `generation` as current: stages `MANIFEST.tmp`, fsyncs
    /// it, renames it over `MANIFEST`, and fsyncs the directory.
    pub fn write_manifest(&self, generation: u64) -> Result<(), StateError> {
        let tmp = self.root.join(Self::MANIFEST_TMP_FILE);
        write_durable(&tmp, &manifest_to_bytes(generation), "state.manifest.write")?;
        failpoint::hit("state.manifest.rename")?;
        retry_io("state.manifest.rename", || {
            fs::rename(&tmp, self.root.join(Self::MANIFEST_FILE))
        })?;
        failpoint::hit("state.manifest.dirsync")?;
        sync_dir(&self.root)?;
        Ok(())
    }

    /// Writes the full state as a fresh generation and publishes it,
    /// returning the new generation number.
    ///
    /// # Errors
    /// Rejects mismatched vector lengths before touching the filesystem.
    /// I/O failures (including injected faults) abort the sequence at
    /// the failing syscall: an unpublished partial generation may remain
    /// on disk, but the previously published generation — and the
    /// manifest pointing at it — are never disturbed.
    pub fn save(
        &self,
        graph: &Graph,
        core: &[NodeId],
        pagerank: &[f64],
        core_pagerank: &[f64],
    ) -> Result<u64, StateError> {
        let mut span = obs::span("delta.state.save");
        let n = graph.node_count();
        for (name, v) in [("p", pagerank), ("p_core", core_pagerank)] {
            if v.len() != n {
                return Err(GraphError::Corrupt(format!(
                    "{name} has {} scores for a {n}-node graph",
                    v.len()
                ))
                .into());
            }
        }
        failpoint::hit("state.create_root")?;
        retry_io("state.create_root", || fs::create_dir_all(&self.root))?;

        // Pick the next generation past everything on disk, so debris
        // from a crashed publish can never collide with a live one.
        let manifest_gen = self.read_manifest().ok().flatten();
        let next = self
            .list_generations()?
            .last()
            .copied()
            .max(manifest_gen)
            .map_or(1, |g| g.saturating_add(1));
        let dir = self.generation_path(next);
        if dir.exists() {
            failpoint::hit("state.gen.clear")?;
            retry_io("state.gen.clear", || fs::remove_dir_all(&dir))?;
        }
        failpoint::hit("state.gen.create")?;
        retry_io("state.gen.create", || fs::create_dir(&dir))?;

        // The image is streamed into the file: no second copy of the
        // graph is held while it is written.
        write_durable_with(&dir.join(Self::GRAPH_FILE), "state.write.graph", |file| {
            io::write_graph_v3(graph, file)
        })?;
        write_durable(&dir.join(Self::PAGERANK_FILE), &scores_to_bytes(pagerank), "state.write.p")?;
        write_durable(
            &dir.join(Self::CORE_PAGERANK_FILE),
            &scores_to_bytes(core_pagerank),
            "state.write.p_core",
        )?;
        let core_txt = core_to_text(core);
        write_durable(&dir.join(Self::CORE_FILE), core_txt.as_bytes(), "state.write.core")?;
        // Make the new generation's directory entries durable before the
        // manifest can name them.
        sync_dir(&dir)?;

        self.write_manifest(next)?;
        self.prune_generations(next);

        span.record("nodes", n as f64);
        span.record("core", core.len() as f64);
        span.record("generation", next as f64);
        obs::counter(obs::names::DELTA_STATE_PUBLISHED, 1.0);
        Ok(next)
    }

    /// Best-effort removal of generations older than the retention
    /// window. Failures are counted, never fatal: extra directories cost
    /// disk, not correctness, and `fsck` reports them.
    fn prune_generations(&self, current: u64) {
        let Ok(gens) = self.list_generations() else { return };
        for g in gens {
            if g + RETAINED_GENERATIONS <= current
                && fs::remove_dir_all(self.generation_path(g)).is_err()
            {
                obs::counter(obs::names::DELTA_STATE_PRUNE_FAILED, 1.0);
            }
        }
    }

    /// Loads and cross-validates the current state, strictly following
    /// the manifest. A missing manifest or any damage along that path is
    /// an error; see [`StateDir::load_with_recovery`] for the lenient
    /// variant.
    pub fn load(&self) -> Result<SavedState, StateError> {
        self.load_current().map(|(_, state)| state)
    }

    /// [`StateDir::load`], also naming the generation the one manifest
    /// read resolved to — what a reader that tags its answers with a
    /// generation needs to stay consistent with a concurrent publish.
    pub fn load_current(&self) -> Result<(u64, SavedState), StateError> {
        let generation = self.read_manifest()?.ok_or_else(|| {
            let path = self.root.join(Self::MANIFEST_FILE);
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("{}: no published generation", path.display()),
            )
        })?;
        Ok((generation, self.load_generation(generation)?))
    }

    /// Loads the snapshot of a specific generation.
    pub fn load_generation(&self, generation: u64) -> Result<SavedState, StateError> {
        let dir = self.generation_path(generation);
        if !dir.is_dir() {
            return Err(StateError::MissingGeneration { generation });
        }
        Ok(Self::load_files(&dir)?.0)
    }

    /// Loads a usable snapshot even when the manifest or its target is
    /// damaged: tries the manifest's generation first, then every other
    /// generation newest-first. The report says what was used and what
    /// failed; `recovered` is the signal to run `spammass fsck --repair`.
    pub fn load_with_recovery(&self) -> Result<(SavedState, RecoveryReport), StateError> {
        let mut span = obs::span("delta.state.recover");
        let mut report = RecoveryReport::default();
        let requested = match self.read_manifest() {
            Ok(g) => {
                report.requested = g;
                g
            }
            Err(e) => {
                report.errors.push(format!("manifest: {e}"));
                None
            }
        };
        if let Some(g) = requested {
            match self.load_generation(g) {
                Ok(state) => {
                    report.used = g;
                    span.record("generation", g as f64);
                    return Ok((state, report));
                }
                Err(e) => report.errors.push(format!("gen-{g:04}: {e}")),
            }
        }
        // The manifest path failed (or there was no manifest): scan the
        // other generations newest-first.
        let mut gens = self.list_generations().unwrap_or_default();
        gens.sort_unstable_by(|a, b| b.cmp(a));
        for g in gens {
            if Some(g) == requested {
                continue;
            }
            match self.load_generation(g) {
                Ok(state) => {
                    report.used = g;
                    report.recovered = true;
                    span.record("generation", g as f64);
                    obs::counter(obs::names::DELTA_STATE_RECOVERED, 1.0);
                    return Ok((state, report));
                }
                Err(e) => report.errors.push(format!("gen-{g:04}: {e}")),
            }
        }
        Err(StateError::NoUsableGeneration { tried: report.errors })
    }

    /// Loads and cross-validates the four state files inside `dir`, the
    /// graph image memory-mapped — the one parser of a generation, behind
    /// every loader here and the serving snapshot. Crate-visible, with the
    /// image's load statistics, so fsck can validate a generation and see
    /// whether its image had to repair itself.
    pub(crate) fn load_files(dir: &Path) -> Result<(SavedState, ImageLoadStats), StateError> {
        let mut span = obs::span("delta.state.load");
        let (graph, image) = io::map_graph_file(&dir.join(Self::GRAPH_FILE))?;
        let n = graph.node_count();
        let pagerank = scores_from_bytes(&retry_io("state.read.p", || {
            fs::read(dir.join(Self::PAGERANK_FILE))
        })?)?;
        let core_pagerank = scores_from_bytes(&retry_io("state.read.p_core", || {
            fs::read(dir.join(Self::CORE_PAGERANK_FILE))
        })?)?;
        for (name, v) in [("p", &pagerank), ("p_core", &core_pagerank)] {
            if v.len() != n {
                return Err(GraphError::Corrupt(format!(
                    "state mismatch: {name} has {} scores for a {n}-node graph",
                    v.len()
                ))
                .into());
            }
        }
        let core_txt =
            retry_io("state.read.core", || fs::read_to_string(dir.join(Self::CORE_FILE)))?;
        let mut core = Vec::new();
        for (lineno, line) in core_txt.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let id: u32 = line.parse().map_err(|_| GraphError::Parse {
                line: lineno + 1,
                message: format!("bad core node id {line:?}"),
            })?;
            if id as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: id, node_count: n }.into());
            }
            core.push(NodeId(id));
        }
        core.sort_unstable();
        core.dedup();
        span.record("nodes", n as f64);
        span.record("core", core.len() as f64);
        Ok((SavedState { graph, core, pagerank, core_pagerank }, image))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spammass_graph::GraphBuilder;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spammass-delta-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> (Graph, Vec<NodeId>, Vec<f64>, Vec<f64>) {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let core = vec![NodeId(0), NodeId(2)];
        let p = vec![0.25, 0.25, 0.25, 0.25];
        let pc = vec![0.2, 0.1, 0.2, 0.1];
        (g, core, p, pc)
    }

    #[test]
    fn scores_round_trip() {
        let scores = vec![0.0, 1.5e-9, 0.25, -3.5];
        let bytes = scores_to_bytes(&scores);
        assert_eq!(scores_from_bytes(&bytes).unwrap(), scores);
        let empty = scores_to_bytes(&[]);
        assert_eq!(scores_from_bytes(&empty).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn scores_reject_every_bit_flip() {
        let clean = scores_to_bytes(&[0.125, 0.5, 0.25]);
        for i in 12..clean.len() - TRAILER_LEN {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x01;
            assert!(scores_from_bytes(&bytes).is_err(), "bit flip at byte {i} went undetected");
        }
        assert!(matches!(
            scores_from_bytes(&clean[..clean.len() - 2]),
            Err(GraphError::Corrupted { field: "length sentinel", .. })
        ));
        assert!(scores_from_bytes(b"SPAMWRNG").is_err());
    }

    #[test]
    fn scores_reject_non_finite_values() {
        let bytes = scores_to_bytes(&[0.5, f64::NAN]);
        assert!(matches!(scores_from_bytes(&bytes), Err(GraphError::Corrupt(_))));
        let bytes = scores_to_bytes(&[f64::INFINITY]);
        assert!(matches!(scores_from_bytes(&bytes), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn manifest_round_trips_and_rejects_damage() {
        for g in [0u64, 1, 42, u64::MAX] {
            assert_eq!(manifest_from_bytes(&manifest_to_bytes(g)).unwrap(), g);
        }
        let clean = manifest_to_bytes(7);
        for i in 0..clean.len() - 1 {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x01;
            assert!(manifest_from_bytes(&bytes).is_err(), "bit flip at byte {i} went undetected");
        }
        assert!(matches!(
            manifest_from_bytes(b"SPAMMANIFEST 1\ngeneration 3\n"),
            Err(StateError::Manifest { .. })
        ));
        assert!(manifest_from_bytes(&[0xFF, 0xFE]).is_err());
        let mut trailing = manifest_to_bytes(3);
        trailing.extend_from_slice(b"extra\n");
        assert!(manifest_from_bytes(&trailing).is_err());
    }

    #[test]
    fn generation_names_parse_back_to_their_numbers() {
        let state = StateDir::new(tmpdir("names"));
        for g in [1u64, 42, 9_999, 12_345] {
            let path = state.generation_path(g);
            let name = path.file_name().and_then(|n| n.to_str()).unwrap();
            assert_eq!(StateDir::parse_generation_name(name), Some(g), "{name}");
        }
        for name in ["gen-", "gen-x1", "gen--1", "generation-1", "gen-1.tmp", "MANIFEST"] {
            assert_eq!(StateDir::parse_generation_name(name), None, "{name}");
        }
    }

    #[test]
    fn state_dir_round_trips_through_generations() {
        let dir = tmpdir("roundtrip");
        let (g, core, p, pc) = sample();
        let state = StateDir::new(&dir);
        assert_eq!(state.save(&g, &core, &p, &pc).unwrap(), 1);
        assert_eq!(state.read_manifest().unwrap(), Some(1));
        let loaded = state.load().unwrap();
        assert_eq!(loaded.graph.node_count(), 4);
        assert_eq!(loaded.graph.edge_count(), 4);
        assert_eq!(loaded.core, core);
        assert_eq!(loaded.pagerank, p);
        assert_eq!(loaded.core_pagerank, pc);

        // A second save publishes generation 2 without touching gen 1.
        let p2 = vec![0.1, 0.2, 0.3, 0.4];
        assert_eq!(state.save(&g, &core, &p2, &pc).unwrap(), 2);
        assert_eq!(state.load().unwrap().pagerank, p2);
        assert_eq!(state.load_generation(1).unwrap().pagerank, p);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn old_generations_are_pruned() {
        let dir = tmpdir("prune");
        let (g, core, p, pc) = sample();
        let state = StateDir::new(&dir);
        for _ in 0..4 {
            state.save(&g, &core, &p, &pc).unwrap();
        }
        assert_eq!(state.list_generations().unwrap(), vec![3, 4]);
        assert_eq!(state.read_manifest().unwrap(), Some(4));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_rejects_mismatched_vectors() {
        let dir = tmpdir("mismatch-save");
        let (g, core, p, _) = sample();
        let err = StateDir::new(&dir).save(&g, &core, &p, &[0.1]).unwrap_err();
        assert!(err.to_string().contains("p_core"), "{err}");
        assert!(!dir.exists(), "save must not leave partial state behind");
    }

    #[test]
    fn load_cross_validates_the_pieces() {
        let dir = tmpdir("mismatch-load");
        let (g, core, p, pc) = sample();
        let state = StateDir::new(&dir);
        let generation = state.save(&g, &core, &p, &pc).unwrap();
        let gen_dir = state.generation_path(generation);

        // Swap in a vector from a different (larger) run.
        fs::write(gen_dir.join(StateDir::PAGERANK_FILE), scores_to_bytes(&[0.1; 9])).unwrap();
        assert!(state.load().is_err());
        fs::write(gen_dir.join(StateDir::PAGERANK_FILE), scores_to_bytes(&p)).unwrap();
        assert!(state.load().is_ok());

        // Core id out of range.
        fs::write(gen_dir.join(StateDir::CORE_FILE), "99\n").unwrap();
        assert!(matches!(
            state.load(),
            Err(StateError::Graph(GraphError::NodeOutOfRange { node: 99, node_count: 4 }))
        ));
        // Garbage core line.
        fs::write(gen_dir.join(StateDir::CORE_FILE), "# ok\nbanana\n").unwrap();
        assert!(matches!(state.load(), Err(StateError::Graph(GraphError::Parse { line: 2, .. }))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_files_surface_as_io_errors() {
        let state = StateDir::new(tmpdir("missing"));
        assert!(matches!(state.load(), Err(StateError::Io(_))));
    }

    #[test]
    fn recovery_falls_back_to_previous_generation() {
        let dir = tmpdir("fallback");
        let (g, core, p, pc) = sample();
        let state = StateDir::new(&dir);
        state.save(&g, &core, &p, &pc).unwrap();
        let p2 = vec![0.4, 0.3, 0.2, 0.1];
        state.save(&g, &core, &p2, &pc).unwrap();

        // Corrupt the current generation's score file.
        let current = state.generation_path(2).join(StateDir::PAGERANK_FILE);
        let mut bytes = fs::read(&current).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&current, &bytes).unwrap();

        assert!(state.load().is_err(), "strict load must refuse the damaged generation");
        let (recovered, report) = state.load_with_recovery().unwrap();
        assert!(report.recovered, "{report}");
        assert_eq!(report.requested, Some(2));
        assert_eq!(report.used, 1);
        assert_eq!(recovered.pagerank, p);
        assert!(!report.errors.is_empty());

        // A save after recovery publishes past the damaged generation.
        let generation = state.save(&g, &core, &p2, &pc).unwrap();
        assert_eq!(generation, 3);
        assert_eq!(state.load().unwrap().pagerank, p2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_pointing_at_missing_generation_is_typed_and_recoverable() {
        let dir = tmpdir("missing-gen");
        let (g, core, p, pc) = sample();
        let state = StateDir::new(&dir);
        state.save(&g, &core, &p, &pc).unwrap();
        // Point the manifest at a generation that does not exist.
        fs::write(dir.join(StateDir::MANIFEST_FILE), manifest_to_bytes(9)).unwrap();
        assert!(matches!(state.load(), Err(StateError::MissingGeneration { generation: 9 })));
        let (recovered, report) = state.load_with_recovery().unwrap();
        assert_eq!(report.used, 1);
        assert!(report.recovered);
        assert_eq!(recovered.pagerank, p);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_typed_and_recoverable() {
        let dir = tmpdir("bad-manifest");
        let (g, core, p, pc) = sample();
        let state = StateDir::new(&dir);
        state.save(&g, &core, &p, &pc).unwrap();
        fs::write(dir.join(StateDir::MANIFEST_FILE), b"SPAMMANIFEST 1\ngeneration ?\n").unwrap();
        assert!(matches!(state.load(), Err(StateError::Manifest { .. })));
        let (recovered, report) = state.load_with_recovery().unwrap();
        assert!(report.recovered);
        assert_eq!(report.requested, None);
        assert_eq!(report.used, 1);
        assert_eq!(recovered.pagerank, p);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn everything_damaged_is_no_usable_generation() {
        let dir = tmpdir("hopeless");
        let (g, core, p, pc) = sample();
        let state = StateDir::new(&dir);
        state.save(&g, &core, &p, &pc).unwrap();
        // Destroy the only generation's graph image and the manifest.
        fs::write(state.generation_path(1).join(StateDir::GRAPH_FILE), b"garbage").unwrap();
        fs::write(dir.join(StateDir::MANIFEST_FILE), b"garbage").unwrap();
        match state.load_with_recovery() {
            Err(StateError::NoUsableGeneration { tried }) => {
                assert!(!tried.is_empty());
            }
            other => panic!("expected NoUsableGeneration, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A retired v1/v2 image header, built by hand: magic, version, and
    /// the node and edge counts of `sample()`.
    fn retired_header(version: u32) -> Vec<u8> {
        let mut bytes = b"SPAMGRPH".to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes
    }

    #[test]
    fn load_current_names_the_generation_the_manifest_resolved() {
        let dir = tmpdir("load-current");
        let (g, core, p, pc) = sample();
        let state = StateDir::new(&dir);
        // Generation directories without a manifest publish nothing.
        fs::create_dir_all(state.generation_path(1)).unwrap();
        match state.load_current() {
            Err(StateError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotFound);
                assert!(e.to_string().contains("no published generation"), "{e}");
            }
            other => panic!("expected a NotFound i/o error, got {other:?}"),
        }
        fs::remove_dir_all(state.generation_path(1)).unwrap();

        state.save(&g, &core, &p, &pc).unwrap();
        let p2 = vec![0.4, 0.3, 0.2, 0.1];
        state.save(&g, &core, &p2, &pc).unwrap();
        let (generation, loaded) = state.load_current().unwrap();
        assert_eq!((generation, loaded.pagerank), (2, p2));
        // Pointing the manifest back is all it takes to read generation 1.
        fs::write(dir.join(StateDir::MANIFEST_FILE), manifest_to_bytes(1)).unwrap();
        let (generation, loaded) = state.load_current().unwrap();
        assert_eq!((generation, loaded.pagerank), (1, p));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_generation_holding_a_retired_image_is_corruption() {
        let dir = tmpdir("retired-image");
        let (g, core, p, pc) = sample();
        let state = StateDir::new(&dir);
        state.save(&g, &core, &p, &pc).unwrap();
        fs::write(state.generation_path(1).join(StateDir::GRAPH_FILE), retired_header(2)).unwrap();
        let err = state.load().unwrap_err();
        assert!(err.is_corruption(), "{err}");
        let StateError::Graph(GraphError::Corrupt(msg)) = &err else {
            panic!("expected a corrupt graph image, got {err:?}");
        };
        assert!(msg.contains("unsupported version 2") && msg.contains("reads v3 and v4"), "{msg}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_skips_a_generation_holding_a_retired_image() {
        let dir = tmpdir("retired-recovery");
        let (g, core, p, pc) = sample();
        let state = StateDir::new(&dir);
        state.save(&g, &core, &p, &pc).unwrap();
        state.save(&g, &core, &[0.4, 0.3, 0.2, 0.1], &pc).unwrap();
        fs::write(state.generation_path(2).join(StateDir::GRAPH_FILE), retired_header(1)).unwrap();
        let (recovered, report) = state.load_with_recovery().unwrap();
        assert!(report.recovered, "{report}");
        assert_eq!((report.requested, report.used), (Some(2), 1));
        assert_eq!(recovered.pagerank, p);
        let text = report.to_string();
        assert!(text.starts_with("recovered: fell back to generation 1"), "{text}");
        assert!(text.contains("unsupported version 1"), "{text}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn state_error_classification() {
        assert!(StateError::manifest("x").is_corruption());
        assert!(StateError::MissingGeneration { generation: 1 }.is_corruption());
        assert!(StateError::NoUsableGeneration { tried: vec![] }.is_corruption());
        assert!(StateError::Graph(GraphError::Corrupt("x".into())).is_corruption());
        let io_err: StateError = std::io::Error::other("x").into();
        assert!(!io_err.is_corruption());
        // GraphError::Io collapses into StateError::Io.
        let e: StateError =
            GraphError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")).into();
        assert!(matches!(e, StateError::Io(_)));
    }
}
