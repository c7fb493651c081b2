//! Registry of well-known metric names emitted across the workspace.
//!
//! The facade takes free-form `&str` names, which keeps instrumentation
//! friction-free but invites drift: a dashboard watching
//! `delta.state.published` silently goes dark if a refactor renames the
//! counter. The durability counters introduced with the crash-safe
//! persistence layer are part of the operational contract (the fsck
//! runbook keys off them), so their names live here as constants —
//! one place to grep, one place a test can hold to the naming
//! convention (`subsystem.noun[.qualifier]`, lowercase, dot-separated).
//!
//! Emitting code is free to keep using literals for purely internal
//! spans; names listed here are the ones external tooling may depend
//! on.

/// Transient-I/O retries performed by the bounded retry helper
/// (`spammass_graph::retry`). Counter; one increment per retried
/// attempt, not per call.
pub const IO_RETRY: &str = "io.retry";

/// Bytes carried by journal batches a lenient read skipped — the
/// silently-dropped volume that PR 6 made visible. Counter.
pub const DELTA_JOURNAL_SKIPPED_BYTES: &str = "delta.journal.skipped_bytes";

/// Bytes durably appended to a journal file. Counter.
pub const DELTA_JOURNAL_APPENDED_BYTES: &str = "delta.journal.appended_bytes";

/// Snapshot generations published through the atomic manifest path.
/// Counter; one increment per successful `StateDir::save`.
pub const DELTA_STATE_PUBLISHED: &str = "delta.state.published";

/// Loads that deviated from the manifest's instruction and fell back to
/// another generation. Counter; nonzero means
/// "run fsck --repair".
pub const DELTA_STATE_RECOVERED: &str = "delta.state.recovered";

/// Best-effort generation prunes that failed (extra disk, not an
/// integrity problem). Counter.
pub const DELTA_STATE_PRUNE_FAILED: &str = "delta.state.prune_failed";

/// fsck invocations (check or repair). Counter.
pub const FSCK_RUNS: &str = "fsck.runs";

/// fsck runs whose verdict was unhealthy. Counter.
pub const FSCK_UNHEALTHY: &str = "fsck.unhealthy";

/// Repair actions applied by `fsck --repair`. Counter; incremented by
/// the number of actions per run.
pub const FSCK_REPAIRS: &str = "fsck.repairs";

/// Damaged snapshot generations moved under `quarantine/`. Counter.
pub const FSCK_GENERATIONS_QUARANTINED: &str = "fsck.generations_quarantined";

/// Bytes past a journal's trusted prefix found by a journal fsck.
/// Counter; zero on clean journals.
pub const FSCK_JOURNAL_QUARANTINED_BYTES: &str = "fsck.journal.quarantined_bytes";

/// Thread count the pool auto-sizer actually chose for a solve. Gauge;
/// compare against the configured `--threads` to spot quota collapse.
pub const PAGERANK_POOL_THREADS: &str = "pagerank.pool.threads";

/// Structured sizing event: node/edge counts, configured threads, host
/// parallelism, the `edges_per_thread` quota, and the chosen count.
/// Message event, emitted once per solve.
pub const PAGERANK_POOL_SIZING: &str = "pagerank.pool.sizing";

/// Completed rounds of the worker pool — a sweep each, plus one round
/// before the sweeps and one after them.
/// Counter; its windowed rate is the live sweeps/s of a running solve.
pub const PAGERANK_POOL_SWEEPS: &str = "pagerank.pool.sweeps";

/// Partition imbalance: the heaviest chunk's share of the balanced
/// weight relative to a perfect split (1.0 = balanced) — gather cost
/// for the resident cut, block edges for the streamed one. Gauge.
pub const PAGERANK_PARTITION_IMBALANCE: &str = "pagerank.partition.imbalance";

/// Number of chunks the node partition was cut into. Gauge.
pub const PAGERANK_PARTITION_CHUNKS: &str = "pagerank.partition.chunks";

/// Scrapes answered by the metrics exposition server. Counter.
pub const EXPORT_SCRAPES: &str = "obs.export.scrapes";

/// Requests answered by the spam-mass query daemon (any endpoint,
/// any status). Counter; its windowed rate is the daemon's live QPS.
pub const SERVE_REQUESTS: &str = "serve.requests";

/// Requests the query daemon rejected (bad method, unknown route,
/// malformed or oversized request, bad parameters). Counter.
pub const SERVE_ERRORS: &str = "serve.errors";

/// Connections an HTTP server (the query daemon or the metrics
/// exporter) answered `503` and closed unread because it already held
/// [`crate::http::MAX_CONNECTIONS`] open. Counter.
pub const SERVE_SHED: &str = "serve.shed";

/// Snapshot swaps published to the daemon's readers (journal-driven
/// updates and externally published generations alike). Counter.
pub const SERVE_SWAPS: &str = "serve.swaps";

/// Wall time of one reload check that actually produced and swapped in
/// a new snapshot (journal read, warm update, publish, load). Windowed
/// histogram, nanoseconds.
pub const SERVE_RELOAD_NS: &str = "serve.reload_ns";

/// Per-endpoint request latency of the query daemon: `/score`.
/// Windowed histogram, nanoseconds.
pub const SERVE_SCORE_NS: &str = "serve.score.request_ns";

/// Per-endpoint request latency of the query daemon: `/batch`.
/// Windowed histogram, nanoseconds.
pub const SERVE_BATCH_NS: &str = "serve.batch.request_ns";

/// Per-endpoint request latency of the query daemon: `/topk`.
/// Windowed histogram, nanoseconds.
pub const SERVE_TOPK_NS: &str = "serve.topk.request_ns";

/// Per-endpoint request latency of the query daemon: `/explain`.
/// Windowed histogram, nanoseconds.
pub const SERVE_EXPLAIN_NS: &str = "serve.explain.request_ns";

/// Bytes of image sections used in place as views into the shared
/// buffer (the mmap fast path). Counter; one increment per image load.
pub const GRAPH_LOAD_ZERO_COPY_BYTES: &str = "graph.load.zero_copy_bytes";

/// Bytes of image sections materialized as owned copies (misalignment,
/// pre-v3 formats, CRC-failed rebuilds, or v4 decompression). Counter;
/// together with `graph.load.zero_copy_bytes` this is the resident cost
/// of a load.
pub const GRAPH_LOAD_COPIED_BYTES: &str = "graph.load.copied_bytes";

/// Compressed blocks decoded by a streamed (out-of-core) solve.
/// Counter; many decodes of the same block across sweeps all count.
pub const ESTIMATE_IO_BLOCKS_DECODED: &str = "estimate.io.blocks_decoded";

/// Encoded bytes read from a compressed image by a streamed solve.
/// Counter; the streamed path's total I/O volume.
pub const ESTIMATE_IO_DECODED_BYTES: &str = "estimate.io.decoded_bytes";

/// Per-worker profiler series name: `pagerank.worker.<w>.<kind>`, where
/// `kind` is `gather_ns` / `barrier_wait_ns` (windowed histograms) or
/// `edges_per_s` (gauge). Worker indices make these dynamic, so they
/// are built here rather than registered in [`ALL`].
pub fn worker_series(worker: usize, kind: &str) -> String {
    format!("pagerank.worker.{worker}.{kind}")
}

/// Every name in this registry, for exhaustive checks.
pub const ALL: &[&str] = &[
    IO_RETRY,
    DELTA_JOURNAL_SKIPPED_BYTES,
    DELTA_JOURNAL_APPENDED_BYTES,
    DELTA_STATE_PUBLISHED,
    DELTA_STATE_RECOVERED,
    DELTA_STATE_PRUNE_FAILED,
    FSCK_RUNS,
    FSCK_UNHEALTHY,
    FSCK_REPAIRS,
    FSCK_GENERATIONS_QUARANTINED,
    FSCK_JOURNAL_QUARANTINED_BYTES,
    PAGERANK_POOL_THREADS,
    PAGERANK_POOL_SIZING,
    PAGERANK_POOL_SWEEPS,
    PAGERANK_PARTITION_IMBALANCE,
    PAGERANK_PARTITION_CHUNKS,
    GRAPH_LOAD_ZERO_COPY_BYTES,
    GRAPH_LOAD_COPIED_BYTES,
    ESTIMATE_IO_BLOCKS_DECODED,
    ESTIMATE_IO_DECODED_BYTES,
    EXPORT_SCRAPES,
    SERVE_REQUESTS,
    SERVE_ERRORS,
    SERVE_SHED,
    SERVE_SWAPS,
    SERVE_RELOAD_NS,
    SERVE_SCORE_NS,
    SERVE_BATCH_NS,
    SERVE_TOPK_NS,
    SERVE_EXPLAIN_NS,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_convention_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(*name), "duplicate registered name {name:?}");
            assert!(!name.is_empty());
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "{name:?} violates the lowercase.dot_separated convention"
            );
            assert!(name.contains('.'), "{name:?} has no subsystem prefix");
            assert!(!name.starts_with('.') && !name.ends_with('.'), "{name:?}");
        }
    }

    #[test]
    fn worker_series_names_are_well_formed() {
        assert_eq!(worker_series(0, "gather_ns"), "pagerank.worker.0.gather_ns");
        assert_eq!(worker_series(3, "barrier_wait_ns"), "pagerank.worker.3.barrier_wait_ns");
        assert_eq!(worker_series(1, "edges_per_s"), "pagerank.worker.1.edges_per_s");
    }
}
