//! # spammass-delta
//!
//! Incremental graph updates for the spam-mass pipeline: the machinery
//! that lets a new crawl increment be folded into an existing estimation
//! run instead of recomputing from scratch.
//!
//! The paper's setting is a periodically re-crawled host graph. Between
//! crawls only a small fraction of links change, yet PageRank, the
//! core-biased PageRank `p′`, and the spam-mass detection of Algorithm 2
//! are all global computations. This crate provides the three pieces
//! that make re-estimation incremental:
//!
//! * [`journal`] — the append-only **`SPAMDLT`** binary journal of
//!   [`DeltaRecord`]s (edge add/remove, node add, core membership),
//!   CRC-framed per batch so a torn tail never poisons the intact prefix.
//! * [`apply`] — [`GraphDelta`], which normalizes an ordered record
//!   stream and patches a loaded CSR [`Graph`](spammass_graph::Graph)
//!   (row by row, copying the rows it does not touch), reporting affected
//!   nodes and dangling-set changes.
//! * [`state`] — [`StateDir`], the saved warm-start state (graph image,
//!   checksummed **`SPAMSCRS`** score vectors, core list) published as
//!   generation-numbered snapshots behind a CRC-guarded `MANIFEST`, so a
//!   follow-up run loads to seed its solvers near the new fixed point
//!   and a crash mid-publication never leaves a half-written state.
//! * [`failpoint`] — zero-dependency fault injection threaded through
//!   every write/fsync/rename above, powering the crash-torture suite.
//!
//! Solver warm-starting itself lives in `spammass-pagerank` (the
//! `*_warm` entry points); the incremental `MassEstimator::update`
//! orchestration lives in `spammass-core`. This crate depends only on
//! the graph substrate and telemetry.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod apply;
pub mod failpoint;
pub mod fsck;
pub mod journal;
mod record;
pub mod state;

pub use apply::{ApplyReport, GraphDelta};
pub use fsck::{check_state, repair_state, GenerationCheck, ManifestStatus, StateFsck};
pub use journal::{
    append_to_file, fsck_journal, is_journal, journal_to_bytes, read_journal,
    read_journal_recovering, read_journal_with, repair_journal, JournalFsck, JournalReport,
    JournalWriter,
};
pub use record::DeltaRecord;
pub use state::{
    core_to_text, manifest_from_bytes, manifest_to_bytes, scores_from_bytes, scores_to_bytes,
    RecoveryReport, SavedState, StateDir, StateError,
};
