//! What the workloads share: the measured-child result, input readers,
//! detection quality, and response checks.

use crate::util::{ctx, Layers, Res};
use spammass_core::detector::DetectorConfig;
use spammass_graph::NodeId;
use spammass_obs::json::Json;
use spammass_serve::{Reloader, ServeOptions, Server};
use spammass_synth::stream::StreamManifest;
use std::path::{Path, PathBuf};

/// The paper's Yahoo! setting (Section 4.4); what `spammass serve` uses.
pub const DETECTOR: DetectorConfig = DetectorConfig { rho: 10.0, tau: 0.98 };
pub const GAMMA: f64 = 0.85;
pub const DAMPING: f64 = 0.85;

/// Files the set-up child leaves under `<work>/input`.
pub struct Inputs {
    pub dir: PathBuf,
}

impl Inputs {
    pub fn web(&self) -> PathBuf {
        self.dir.join("web")
    }
    pub fn v4(&self) -> PathBuf {
        self.dir.join("web.v4.spamgrph")
    }
    pub fn state(&self) -> PathBuf {
        self.dir.join("state")
    }
    pub fn truth(&self) -> PathBuf {
        self.dir.join("truth.bin")
    }
    pub fn evolve(&self) -> PathBuf {
        self.dir.join("evolve.dlt")
    }
}

/// What a measured child hands back to the runner.
#[derive(Default)]
pub struct Measured {
    /// One timed operation each: pipeline runs, refreshes, or open-loop
    /// requests (from due time), in ms.
    pub samples_ms: Vec<f64>,
    /// Completed operations per second of timed work; for the daemon
    /// workloads, of the closed-loop phase.
    pub throughput_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// `VmHWM` taken right after the timed part, before checks and probes.
    pub peak_rss_mb: f64,
    pub precision: f64,
    pub recall: f64,
    /// Fingerprint and size of the flagged set (batch workloads compare).
    pub flagged_hash: u64,
    pub flagged: u64,
    pub layers: Layers,
    /// Why operations failed, for the operator.
    pub failures: Vec<String>,
}

impl Measured {
    /// Records the flagged set the workload produced or serves: its
    /// fingerprint, and its `(precision, recall)` from [`quality`].
    pub fn set_flagged(&mut self, flagged: &[NodeId], (precision, recall): (f64, f64)) {
        self.precision = precision;
        self.recall = recall;
        self.flagged = flagged.len() as u64;
        self.flagged_hash = crate::util::fnv1a(flagged.iter().map(|x| x.0));
    }

    /// Counts a failed operation; the first few reasons are kept.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// Completed operations per second of timed work: what the benchmark does
/// between operations (cleaning up, probing) is not the system's time.
pub fn busy_throughput(m: &Measured) -> f64 {
    let busy_s: f64 = m.samples_ms.iter().filter(|ms| ms.is_finite()).sum::<f64>() / 1e3;
    (m.attempted - m.failed) as f64 / busy_s
}

/// A streamed-generator shard directory, read into memory.
pub struct Web {
    pub manifest: StreamManifest,
    pub edges: Vec<(u32, u32)>,
    pub core: Vec<NodeId>,
}

/// Reads manifest, edge list and good core — the `convert` half of the
/// pipeline clock.
pub fn read_web(dir: &Path) -> Res<Web> {
    let manifest = ctx("read manifest", StreamManifest::read(dir))?;
    let mut edges = Vec::with_capacity(manifest.edges as usize);
    for path in manifest.shard_paths(dir) {
        let bytes = ctx("read shard", std::fs::read(&path))?;
        edges.extend(bytes.chunks_exact(8).map(|pair| {
            let half = |at: usize| {
                u32::from_le_bytes([pair[at], pair[at + 1], pair[at + 2], pair[at + 3]])
            };
            (half(0), half(4))
        }));
    }
    Ok(Web { manifest, edges, core: read_core(dir)? })
}

pub fn read_core(web: &Path) -> Res<Vec<NodeId>> {
    let text = ctx("read core.txt", std::fs::read_to_string(web.join("core.txt")))?;
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().map(NodeId).map_err(|_| format!("bad core id {l:?}")))
        .collect()
}

/// Ground truth of a scenario: spam flags of the base hosts; every host
/// the evolution adds later is a booster, so spam.
pub struct Truth {
    base_spam: Vec<bool>,
}

impl Truth {
    pub fn write(path: &Path, base_nodes: usize, spam: &[NodeId]) -> Res<()> {
        let mut flags = vec![0u8; base_nodes];
        for s in spam {
            flags[s.index()] = 1;
        }
        ctx("write truth", std::fs::write(path, flags))
    }

    pub fn read(path: &Path) -> Res<Truth> {
        let flags = ctx("read truth", std::fs::read(path))?;
        Ok(Truth { base_spam: flags.into_iter().map(|b| b != 0).collect() })
    }

    pub fn is_spam(&self, node: u32) -> bool {
        self.base_spam.get(node as usize).copied().unwrap_or(true)
    }
}

/// `(precision, recall)` of a flagged set: flagged ∩ spam / flagged, and
/// flagged ∩ spam / spam hosts with scaled PageRank ≥ ρ — the paper's
/// candidate pool, the only hosts Algorithm 2 can flag.
pub fn quality(
    flagged: &[NodeId],
    nodes: usize,
    scaled_pagerank: impl Fn(u32) -> f64,
    is_spam: impl Fn(u32) -> bool,
) -> (f64, f64) {
    let hits = flagged.iter().filter(|x| is_spam(x.0)).count() as f64;
    let pool =
        (0..nodes as u32).filter(|&x| is_spam(x) && scaled_pagerank(x) >= DETECTOR.rho).count();
    let ratio = |den: usize| if den == 0 { 0.0 } else { hits / den as f64 };
    (ratio(flagged.len()), ratio(pool))
}

/// Starts the daemon over `state` the way `spammass serve` does, with
/// default options except the poll interval: the benchmark triggers
/// reloads itself, so the background pass must not race it.
pub fn start_server(state: &Path, journal: Option<PathBuf>, poll_s: Option<u64>) -> Res<Server> {
    let reloader =
        Reloader::new(spammass_delta::StateDir::new(state), journal, DETECTOR, GAMMA, DAMPING, 0);
    let mut options = ServeOptions::default();
    if let Some(s) = poll_s {
        options.poll = std::time::Duration::from_secs(s);
    }
    ctx("start the daemon", Server::start(options, reloader))
}

pub fn schema_tag(schema: &str) -> String {
    format!("\"schema\":{}", Json::str(schema).render())
}

pub fn generation_tag(generation: u64) -> String {
    format!("\"generation\":{}", Json::uint(generation).render())
}

/// Checks a response without parsing it: status 200, the endpoint's
/// schema tag, the expected generation tag.
pub fn tagged_ok(
    status: u16,
    body: &[u8],
    schema_tag: &str,
    generation_tag: &str,
) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}"));
    }
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    for tag in [schema_tag, generation_tag] {
        if !text.contains(tag) {
            return Err(format!("no {tag}"));
        }
    }
    Ok(())
}

pub fn parse(body: &[u8]) -> Result<Json, String> {
    Json::parse(std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?)
}

/// Number at `path` inside a parsed response.
pub fn num(doc: &Json, path: &[&str]) -> Result<f64, String> {
    let mut at = doc;
    for key in path {
        at = at.get(key).ok_or_else(|| format!("no field {key}"))?;
    }
    at.as_f64().ok_or_else(|| format!("{} is not a number", path.join(".")))
}
