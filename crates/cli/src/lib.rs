//! # spammass-cli
//!
//! Command-line toolkit around the spam-mass library:
//!
//! ```text
//! spammass generate --hosts 60000 --seed 42 --out web.graph [--labels hosts.txt] [--truth truth.tsv] [--core core.txt] [--evolve 3 --journal delta.journal]
//! spammass stats    --graph web.graph
//! spammass pagerank --graph web.graph [--damping 0.85] [--top 20]
//! spammass estimate --graph web.graph --core core.txt [--gamma 0.85] [--out mass.tsv] [--state state/]
//! spammass detect   --graph web.graph --core core.txt [--rho 10] [--tau 0.98] [--labels hosts.txt]
//! spammass update   --journal delta.journal --state state/ [--rho 10] [--tau 0.98]
//! ```
//!
//! Graph files are auto-detected: the binary image format of
//! [`spammass_graph::io`] (magic `SPAMGRPH`) or a text edge list. Core
//! files hold one entry per line — either a numeric node id or a host
//! name resolved against `--labels`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod args;
pub mod commands;
pub mod live;
pub mod loading;
pub mod telemetry;

use std::fmt;

/// A fresh scratch directory for one test. `test` must be unique among
/// the crate's tests (use the test's name): tests run on parallel
/// threads, so two sharing a directory race on its files.
#[cfg(test)]
pub(crate) fn test_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spammass-cli-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test scratch directory");
    dir
}

/// CLI-level errors (argument problems, I/O, file-format trouble).
#[derive(Debug)]
pub enum CliError {
    /// Bad or missing command-line arguments; the string is user-facing.
    Usage(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Graph or core file could not be parsed.
    Format(String),
    /// A solve or estimation failed on valid inputs; the string carries the
    /// per-attempt diagnostics (caps, iteration counts, residuals).
    Compute(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Format(m) => write!(f, "format error: {m}"),
            CliError::Compute(m) => write!(f, "computation failed: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<spammass_graph::GraphError> for CliError {
    fn from(e: spammass_graph::GraphError) -> Self {
        CliError::Format(e.to_string())
    }
}

impl From<spammass_delta::StateError> for CliError {
    fn from(e: spammass_delta::StateError) -> Self {
        match e {
            spammass_delta::StateError::Io(io) => CliError::Io(io),
            other => CliError::Format(other.to_string()),
        }
    }
}

impl From<spammass_pagerank::PageRankError> for CliError {
    fn from(e: spammass_pagerank::PageRankError) -> Self {
        CliError::Compute(e.to_string())
    }
}

impl From<spammass_pagerank::ChainError> for CliError {
    fn from(e: spammass_pagerank::ChainError) -> Self {
        CliError::Compute(e.to_string())
    }
}

impl From<spammass_core::estimate::EstimateError> for CliError {
    fn from(e: spammass_core::estimate::EstimateError) -> Self {
        use spammass_core::estimate::EstimateError;
        match &e {
            // Bad γ or solver parameters are argument problems.
            EstimateError::InvalidGamma(_) | EstimateError::Config(_) => {
                CliError::Usage(e.to_string())
            }
            // A block that fails to decode mid-solve is a damaged image.
            EstimateError::Stream(spammass_pagerank::PageRankError::EdgeSource(_)) => {
                CliError::Format(e.to_string())
            }
            _ => CliError::Compute(e.to_string()),
        }
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
spammass — link spam detection based on mass estimation

USAGE:
  spammass generate --hosts N [--seed S] --out FILE [--labels FILE] [--truth FILE] [--core FILE] [--evolve K --journal FILE]
  spammass convert  --in FILE --out FILE [--format v3|v4] [--order degree|none] [--core FILE] [--labels FILE] [--lenient N] [--threads T]
  spammass stats    --graph FILE [--lenient N]
  spammass pagerank --graph FILE [--damping C] [--top K] [--threads T] [--labels FILE] [--lenient N]
  spammass estimate --graph FILE --core FILE [--labels FILE] [--gamma G] [--out FILE] [--state DIR] [--threads T] [--lenient N] [--max-resident-mb M]
  spammass detect   --graph FILE --core FILE [--labels FILE] [--gamma G] [--rho R] [--tau T] [--top K] [--lenient N]
  spammass update   --journal FILE --state DIR [--labels FILE] [--gamma G] [--rho R] [--tau T] [--top K] [--threads T] [--lenient N]
  spammass serve    --state DIR [--addr A] [--journal FILE] [--poll-ms MS] [--gamma G] [--rho R] [--tau T] [--damping C] [--threads T] [--max-seconds S]
  spammass fsck     --state DIR [--journal FILE] [--repair true]

  --evolve K        also emit K incremental farm-growth steps as a SPAMDLT
                    delta journal (requires --journal)
  --state DIR       estimate: save graph + score vectors for incremental use;
                    update: load, apply the journal, warm re-solve, and
                    publish a new snapshot generation;
                    fsck: audit the manifest, every snapshot generation, and
                    (with --journal) the delta journal; --repair quarantines
                    damaged generations, rewrites a graph image that loaded
                    only by rebuilding a section, re-points the manifest at
                    the newest valid one, and truncates a torn journal tail

  --lenient N       tolerate up to N malformed edge-list lines (skipped and
                    reported) instead of failing on the first bad line
  --threads T       worker threads for the solve engine (pagerank,
                    estimate — resident and `--max-resident-mb` alike, the
                    streamed count further capped by the image's block count
                    and the budget — and update) and for sharded text ingest
                    (0 = all cores; small graphs and files run single-threaded
                    anyway)
  --edges-per-thread N
                    per-worker edge quota for the pool auto-sizer (0 = the
                    built-in default); lower it to force multi-worker solves
                    on small graphs — the `pagerank.pool.sizing` event names
                    whichever cap won
  --order degree    convert: renumber the image's nodes by descending
                    out-degree, a cache-friendly layout every later solve
                    on it runs in; --core F and --labels F are re-keyed
                    beside the image as OUT.core.txt and OUT.labels.txt
                    (the labels file must name every node). A journal for
                    such an image must name its new ids

  solves: pagerank, estimate, detect, update and serve all run the one
  engine. A solve that hits its iteration cap is run once more — same
  damping, same start — with the cap its own residual asks for, and says so
  (`attempt:` lines from pagerank; `warning: … degraded` names the cap)

  serve: answers HTTP/JSON spam-mass queries from the state directory's
  current snapshot generation (mmapped where possible): /score?node=N,
  /batch?nodes=N,N, /topk?k=K[&by=absolute|relative|pagerank],
  /explain?node=N[&limit=L], /stats, /reload. The bound address is printed
  to stderr. With --journal, new journal records are folded in by a warm
  in-process update and published as a fresh generation; externally
  published generations are picked up too — either way the snapshot is
  swapped atomically under in-flight readers (checked every --poll-ms,
  default 1000, and on GET /reload). --threads sets the reload solve's
  workers (0 = all cores); each connection is served on a thread of its
  own. --max-seconds S exits after S seconds (0 = forever)

Every subcommand also accepts:
  --trace MODE      append run telemetry to the output: `pretty` prints the
                    span timing tree, `json` prints one JSON object per event
  --metrics-out F   write the machine-readable run report (JSON, schema
                    spammass.run_report/v1) to file F

Long-running subcommands (pagerank, estimate, update) also accept:
  --serve-metrics A serve live metrics over HTTP on address A (e.g.
                    127.0.0.1:9184; port 0 picks an ephemeral port printed to
                    stderr): /metrics is Prometheus text, /snapshot JSON
                    (schema spammass.metrics_snapshot/v1), /flight the
                    flight-recorder ring
  --serve-linger MS keep the metrics server up MS milliseconds after the
                    command finishes, so scripted scrapes cannot race it
                    (needs --serve-metrics)
  --crash-dump F    on panic, write the flight-recorder ring + final metrics
                    snapshot to F (schema spammass.flight/v1; default
                    metrics-crash.json when the live plane is on)
";
