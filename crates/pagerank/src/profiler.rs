//! Worker-pool profiler: per-worker gather / barrier-wait timing, fed
//! into the live metrics plane.
//!
//! The pooled solvers are barrier-synchronized, so one slow chunk stalls
//! every worker — but from the outside a solve is just "slow", with no
//! way to tell skew (one hot chunk) from uniform cost (everyone busy).
//! The profiler makes the distinction observable while the solve runs:
//! each worker accumulates the nanoseconds it spent in the gather kernel
//! and at the round handoff into relaxed atomics, and once per round the
//! control thread flushes those through the `obs` facade into per-worker
//! windowed series on the process-global [`spammass_obs::registry`]
//! (and into the thread's collector, if one is recording the run):
//!
//! * `pagerank.worker.<w>.gather_ns` — histogram of per-round kernel time;
//! * `pagerank.worker.<w>.barrier_wait_ns` — histogram of per-round wait
//!   time (high values on one worker mean *the others* are slow);
//! * `pagerank.worker.<w>.edges_per_s` — gauge of the worker's gather
//!   throughput over its chunk's edges;
//! * `pagerank.partition.imbalance` / `pagerank.partition.chunks` —
//!   gauges describing the worker partition itself (the resident rows'
//!   gather cost, the streamed blocks' edges);
//! * `pagerank.pool.sweeps` — counter of pool rounds (every solve adds
//!   a set-up round before its sweeps and a finish round after them)
//!   whose windowed rate is the live sweeps/s of the solve.
//!
//! Construction is gated on [`spammass_obs::is_live`]: without the live
//! plane (`--serve-metrics` / `--crash-dump`) [`PoolProfiler::from_live`]
//! returns `None` and the pool runs the exact unprofiled code path — no
//! timestamps, no atomics, no overhead.

use spammass_obs as obs;
use spammass_obs::names;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-worker timing accumulators plus the prebuilt series names they
/// flush into. One instance per solve; shared by reference with the
/// pool's workers.
pub(crate) struct PoolProfiler {
    /// Nanoseconds each worker spent in the kernel since the last flush.
    gather_ns: Vec<AtomicU64>,
    /// Nanoseconds each worker spent blocked at the round handoff since
    /// the last flush.
    barrier_ns: Vec<AtomicU64>,
    gather_names: Vec<String>,
    barrier_names: Vec<String>,
    eps_names: Vec<String>,
    /// Edges each worker's chunk gathers per sweep (gathered edges ×
    /// solve columns).
    chunk_edges: Vec<f64>,
    imbalance: f64,
}

impl PoolProfiler {
    /// Builds a profiler for a pool whose worker `w` traverses
    /// `chunk_edges[w]` edges per round and was handed `chunk_weights[w]`
    /// of the weight its partition balances — or `None` when the live
    /// plane is off, so the solvers pay nothing by default.
    /// `columns` is the number of jump vectors a single round traverses.
    pub(crate) fn from_live(
        chunk_edges: &[usize],
        chunk_weights: &[usize],
        columns: usize,
    ) -> Option<PoolProfiler> {
        if !obs::is_live() {
            return None;
        }
        let workers = chunk_edges.len();
        let imbalance = partition_imbalance(chunk_weights);
        let chunk_edges: Vec<f64> =
            chunk_edges.iter().map(|&e| (e * columns.max(1)) as f64).collect();
        Some(PoolProfiler {
            gather_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            barrier_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            gather_names: (0..workers).map(|w| names::worker_series(w, "gather_ns")).collect(),
            barrier_names: (0..workers)
                .map(|w| names::worker_series(w, "barrier_wait_ns"))
                .collect(),
            eps_names: (0..workers).map(|w| names::worker_series(w, "edges_per_s")).collect(),
            chunk_edges,
            imbalance,
        })
    }

    /// Adds `ns` of kernel time to worker `w`'s slot. Relaxed: slots are
    /// only reconciled at the per-round flush, which the pool's round
    /// handoff orders against.
    #[inline]
    pub(crate) fn record_gather(&self, worker: usize, ns: u64) {
        self.gather_ns[worker].fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds `ns` of handoff-wait time to worker `w`'s slot.
    #[inline]
    pub(crate) fn record_barrier(&self, worker: usize, ns: u64) {
        self.barrier_ns[worker].fetch_add(ns, Ordering::Relaxed);
    }

    /// Drains every slot into the live series. Called by the control thread
    /// once per round; a worker's end-of-round wait may land after the
    /// flush and be attributed to the next round, which is fine for
    /// windowed series.
    pub(crate) fn flush_round(&self) {
        for w in 0..self.gather_ns.len() {
            let gather = self.gather_ns[w].swap(0, Ordering::Relaxed);
            let barrier = self.barrier_ns[w].swap(0, Ordering::Relaxed);
            obs::observe(&self.gather_names[w], gather as f64);
            obs::observe(&self.barrier_names[w], barrier as f64);
            if gather > 0 {
                let eps = self.chunk_edges[w] / (gather as f64 / 1e9);
                obs::gauge(&self.eps_names[w], eps);
            }
        }
        obs::counter(names::PAGERANK_POOL_SWEEPS, 1.0);
        obs::gauge(names::PAGERANK_PARTITION_IMBALANCE, self.imbalance);
        obs::gauge(names::PAGERANK_PARTITION_CHUNKS, self.gather_ns.len() as f64);
    }
}

/// Heaviest chunk's weight relative to a perfect split (1.0 =
/// balanced). The resident row cuts balance gather cost to within half a
/// row at each end, so a row heavier than a worker's share shows here;
/// the streamed block ranges balance edges to within a block.
pub(crate) fn partition_imbalance(weights: &[usize]) -> f64 {
    let total: usize = weights.iter().sum();
    let max = weights.iter().copied().max().unwrap_or(0);
    if total == 0 {
        return 1.0;
    }
    max as f64 * weights.len() as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RowPartition;
    use spammass_graph::{Graph, GraphBuilder};

    /// Star graph: all in-edges but one land on node 0, which links back
    /// to node 1 — so the sweep gathers every one of them.
    fn star(n: u32) -> Graph {
        let mut edges: Vec<(u32, u32)> = (1..n).map(|x| (x, 0)).collect();
        if n > 1 {
            edges.push((0, 1));
        }
        GraphBuilder::from_edges(n as usize, &edges)
    }

    #[test]
    fn imbalance_is_one_for_single_chunk() {
        let g = star(100);
        let p = RowPartition::balanced(&g, 1);
        assert_eq!(partition_imbalance(p.chunk_costs()), 1.0);
    }

    #[test]
    fn a_hub_row_shows_as_imbalance() {
        // Whole rows: the star's hub row, all but one unit of the cost,
        // goes to one of four workers, and the gauge says so.
        let g = star(10_000);
        let costs = RowPartition::balanced(&g, 4).chunk_costs().to_vec();
        let total = costs.iter().sum::<usize>() as f64;
        let hub = total - 2.0;
        assert_eq!(partition_imbalance(&costs), hub * 4.0 / total);
    }

    #[test]
    fn imbalance_handles_empty_graphs() {
        let g = GraphBuilder::from_edges(0, &[]);
        let p = RowPartition::balanced(&g, 4);
        assert_eq!(partition_imbalance(p.chunk_costs()), 1.0);
    }

    #[test]
    fn from_live_is_none_without_a_registry() {
        // Unit tests never switch the live plane on (that is
        // irreversible), so the gate must report None here.
        let g = star(50);
        let p = RowPartition::balanced(&g, 2);
        assert!(PoolProfiler::from_live(p.chunk_edges(), p.chunk_costs(), 1).is_none());
    }
}
