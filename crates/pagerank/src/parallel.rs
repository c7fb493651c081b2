//! Pool sizing for the engine.
//!
//! The Yahoo! experiments ran PageRank twice over a 979M-edge host
//! graph; at that scale the matrix–vector product dominates, so every
//! sweep-level inefficiency multiplies by hundreds of iterations. The
//! hot path lives in [`crate::engine`]; this module decides how many
//! workers a solve runs on:
//!
//! * [`pool_threads`] — the pure sizing rule: configured threads capped
//!   by a node floor and a **sweep-scaled edge quota**. A worker is
//!   worth spawning when the edges it relieves the others of outweigh
//!   its per-sweep handoff cost, so the quota shrinks as the expected
//!   sweep count grows ([`estimated_sweeps`], from the tolerance and
//!   damping factor) — a deep solve amortizes thread setup over many
//!   more sweeps than a shallow one.
//! * every decision — resident or streamed — is recorded as a
//!   `pagerank.pool.sizing` event (nodes, edges, quota, sweep hint,
//!   `pooled` or `streamed`, and the cap that chose the count) so a solve
//!   that silently ran on one worker is one grep away.
//!
//! Every graph, however small, is solved by the engine; one worker is
//! simply a pool of one.

use crate::config::PageRankConfig;
use spammass_graph::Graph;
use spammass_obs as obs;

/// Minimum nodes per worker; the node-count floor of the auto-sizer.
const MIN_CHUNK: usize = 16 * 1024;

/// Per-worker edge quota for a solve of [`REF_SWEEPS`] sweeps: below
/// ~0.5M edges per worker, the handoff cost of an extra worker outweighs
/// its share of such a solve. The effective quota scales with the
/// expected sweep count (see [`pool_threads`]).
pub const DEFAULT_EDGES_PER_THREAD: usize = 1 << 19;

/// Floor of the sweep-scaled quota: even for very deep solves a worker
/// must own at least this many edges to pay for itself.
pub const MIN_EDGES_PER_THREAD: usize = 1 << 15;

/// Sweep count at which [`DEFAULT_EDGES_PER_THREAD`] applies unscaled
/// (roughly a tolerance of 1e-7 at the paper's damping 0.85).
const REF_SWEEPS: usize = 96;

/// Expected sweep count for a given tolerance and damping: the residual
/// contracts by at least `c` per sweep (Jacobi's rate; the engine's
/// in-place sweep is faster wherever it reads fresh), so
/// `ceil(ln ε / ln c)` sweeps reach tolerance `ε`. Clamped to
/// `1..=100_000`; deliberately **not** clamped by `max_iterations`, so a
/// tight cap on a deep tolerance still sizes (and allocates) for the
/// deep solve it is truncating.
pub fn estimated_sweeps(tolerance: f64, damping: f64) -> usize {
    if tolerance <= 0.0 || damping <= 0.0 || damping >= 1.0 {
        return 1;
    }
    let ratio = tolerance.ln() / damping.ln();
    if !ratio.is_finite() {
        return 1;
    }
    (ratio.ceil() as usize).clamp(1, 100_000)
}

/// The per-worker edge quota in force: `edges_per_thread` when nonzero,
/// otherwise the default scaled by expected sweep count — spawning a
/// worker costs the same regardless of solve depth, so a solve with
/// twice the sweeps justifies a worker at half the edges. The scaled
/// quota is clamped to `[MIN_EDGES_PER_THREAD, DEFAULT_EDGES_PER_THREAD]`.
fn edge_quota(edges_per_thread: usize, sweeps: usize) -> usize {
    if edges_per_thread != 0 {
        return edges_per_thread;
    }
    (DEFAULT_EDGES_PER_THREAD * REF_SWEEPS / sweeps.max(1))
        .clamp(MIN_EDGES_PER_THREAD, DEFAULT_EDGES_PER_THREAD)
}

/// A named upper bound on the worker count; the sizing event reports the
/// name of the one that chose it.
pub(crate) type Cap = (&'static str, usize);

/// The caps of the sizing rule: the configured thread count (`0` =
/// `hardware` cores), one worker per [`MIN_CHUNK`] nodes, and one worker
/// per edge quota.
fn pool_caps(
    configured: usize,
    edges_per_thread: usize,
    hardware: usize,
    nodes: usize,
    edges: usize,
    sweeps: usize,
) -> [Cap; 3] {
    let requested =
        if configured == 0 { ("hardware", hardware) } else { ("configured", configured) };
    let quota = edge_quota(edges_per_thread, sweeps);
    [requested, ("node_floor", nodes.div_ceil(MIN_CHUNK)), ("edge_quota", edges.div_ceil(quota))]
}

/// The smallest cap (the first of equals, so the requested count wins a
/// tie) and the worker count it allows — never below one.
fn tightest(caps: &[Cap]) -> Cap {
    let &(name, value) = caps.iter().min_by_key(|cap| cap.1).expect("the requested count is a cap");
    (name, value.max(1))
}

/// Pure pool-sizing rule:
/// the configured thread count (`0` = `hardware` cores), capped so each
/// worker owns at least [`MIN_CHUNK`] nodes **and** at least the edge
/// quota — `edges_per_thread` when nonzero, otherwise the sweep-scaled
/// default (see [`estimated_sweeps`]).
///
/// Exposed (and pure) so the sizing table is testable without probing
/// the host's core count.
pub fn pool_threads(
    configured: usize,
    edges_per_thread: usize,
    hardware: usize,
    nodes: usize,
    edges: usize,
    sweeps: usize,
) -> usize {
    tightest(&pool_caps(configured, edges_per_thread, hardware, nodes, edges, sweeps)).1
}

/// A sized pool: the worker count plus everything the
/// `pagerank.pool.sizing` event says about how it was chosen.
pub(crate) struct PoolSizing {
    /// The chosen worker count.
    pub(crate) threads: usize,
    /// The cap that chose it.
    cap: &'static str,
    /// The inputs of the decision, by event field name.
    inputs: Vec<Cap>,
}

impl PoolSizing {
    /// Sizes a solve over `n` nodes and `m` edges: [`pool_threads`],
    /// further capped by `more_caps`.
    pub(crate) fn new(config: &PageRankConfig, n: usize, m: usize, more_caps: &[Cap]) -> Self {
        let hw = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
        let sweeps = estimated_sweeps(config.tolerance, config.damping);
        let mut caps =
            pool_caps(config.threads, config.edges_per_thread, hw, n, m, sweeps).to_vec();
        caps.extend_from_slice(more_caps);
        let (cap, threads) = tightest(&caps);
        let mut inputs = vec![
            ("nodes", n),
            ("edges", m),
            ("configured", config.threads),
            ("hardware", hw),
            ("edges_per_thread", edge_quota(config.edges_per_thread, sweeps)),
            ("sweeps_hint", sweeps),
        ];
        inputs.extend_from_slice(more_caps);
        PoolSizing { threads, cap, inputs }
    }

    /// Records the decision as a `pagerank.pool.sizing` event plus the
    /// `pagerank.pool.threads` gauge: when a run shows `chosen: 1`
    /// despite `--threads 4`, the event's `cap` names what collapsed it
    /// and `path` whether the solve was resident or streamed.
    pub(crate) fn record(self, path: &'static str) {
        let mut fields: Vec<(String, obs::Json)> = self
            .inputs
            .iter()
            .map(|&(name, value)| (name.to_string(), obs::Json::uint(value as u64)))
            .collect();
        fields.push(("path".to_string(), obs::Json::str(path)));
        fields.push(("cap".to_string(), obs::Json::str(self.cap)));
        fields.push(("chosen".to_string(), obs::Json::uint(self.threads as u64)));
        obs::event(obs::names::PAGERANK_POOL_SIZING, fields);
        obs::gauge(obs::names::PAGERANK_POOL_THREADS, self.threads as f64);
    }
}

/// Sizes a resident solve, records the decision (path `pooled`) and
/// returns the worker count.
pub(crate) fn solve_path(config: &PageRankConfig, graph: &Graph) -> usize {
    let sizing = PoolSizing::new(config, graph.node_count(), graph.edge_count(), &[]);
    let threads = sizing.threads;
    sizing.record("pooled");
    threads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::solve_batch;
    use crate::jump::JumpVector;
    use crate::reference::jacobi::solve_jacobi;
    use crate::{PageRankError, PageRankResult};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spammass_graph::GraphBuilder;

    fn cfg() -> PageRankConfig {
        // The test graphs are far below the default edge quota; drop the
        // quota so `.threads(k)` actually runs k workers.
        PageRankConfig::default().edges_per_thread(1)
    }

    fn random_graph(n: usize, m: usize, seed: u64) -> spammass_graph::Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::with_capacity(n, m);
        for _ in 0..m {
            let f = rng.gen_range(0..n as u32);
            let t = rng.gen_range(0..n as u32);
            if f != t {
                b.add_edge(spammass_graph::NodeId(f), spammass_graph::NodeId(t));
            }
        }
        b.build()
    }

    /// The production solve with one uniform column.
    fn solve_uniform(g: &Graph, config: &PageRankConfig) -> Result<PageRankResult, PageRankError> {
        Ok(solve_batch(g, &[JumpVector::Uniform], config)?.remove(0))
    }

    /// `‖(1−c)v + cTᵀp − p‖₁` for the uniform jump: the linear-system
    /// residual of `p`, recomputed from the out-edges.
    fn linear_residual(g: &Graph, p: &[f64], c: f64) -> f64 {
        let n = g.node_count();
        let mut r = vec![(1.0 - c) / n as f64; n];
        for x in g.nodes() {
            let out = g.out_neighbors(x);
            for t in out {
                r[t.index()] += c * p[x.index()] / out.len() as f64;
            }
        }
        r.iter().zip(p).map(|(a, b)| (a - b).abs()).sum()
    }

    #[test]
    fn iteration_count_tracks_the_serial_reference() {
        // The in-place sweep never needs more sweeps than Algorithm 1's
        // Jacobi sweep; on a random layout it reads few edges fresh, so
        // it saves little there.
        let g = random_graph(40_000, 200_000, 7);
        let a = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
        let b = solve_uniform(&g, &cfg().threads(4)).unwrap();
        assert!(b.iterations <= a.iterations, "{} vs {}", b.iterations, a.iterations);
        // Where every link points forward, each worker's rows settle
        // within a pass: far fewer sweeps. A silent return to Jacobi
        // fails here.
        let mut rng = StdRng::seed_from_u64(11);
        let mut forward = GraphBuilder::with_capacity(40_000, 300_000);
        for _ in 0..300_000 {
            let (f, t) = (rng.gen_range(0..40_000u32), rng.gen_range(0..40_000u32));
            if f != t {
                forward
                    .add_edge(spammass_graph::NodeId(f.min(t)), spammass_graph::NodeId(f.max(t)));
            }
        }
        let g = forward.build();
        for threads in [1usize, 2, 4] {
            let a = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
            let b = solve_uniform(&g, &cfg().threads(threads)).unwrap();
            assert!(
                b.iterations * 10 <= a.iterations * 6,
                "{threads} workers: {} vs Jacobi's {}",
                b.iterations,
                a.iterations
            );
        }
    }

    #[test]
    fn returns_the_newest_buffer_for_any_iteration_parity() {
        // After a sweep the linear residual is `U·Δ` (`chain`'s module
        // docs), at most `c` times the reported step. Here every link
        // points to an older id, so no in-edge is read fresh and the
        // iterate one sweep older has the whole step as its residual —
        // `1/c` over the bound. A parity bug in the double-buffer
        // bookkeeping fails this for whichever tolerances land on odd vs
        // even iteration counts.
        let g = random_graph(40_000, 120_000, 23);
        let g = g.filter_edges(|x, y| y < x);
        let c = cfg().damping;
        let mut parities = [false, false];
        for tol in [1e-3, 1e-4, 1e-5, 1e-6, 1e-7] {
            let r = solve_uniform(&g, &cfg().threads(2).tolerance(tol)).unwrap();
            parities[r.iterations % 2] = true;
            let recomputed = linear_residual(&g, &r.scores, c);
            assert!(
                recomputed <= c * r.residual,
                "tol {tol}, {} sweeps: linear residual {recomputed:e} over c × step {:e}",
                r.iterations,
                r.residual
            );
        }
        assert!(parities[0] && parities[1], "{parities:?}");
    }

    #[test]
    fn sweep_estimate_tracks_tolerance_and_damping() {
        // ceil(ln ε / ln c) at the paper's c = 0.85.
        assert_eq!(estimated_sweeps(1e-12, 0.85), 171);
        assert_eq!(estimated_sweeps(1e-10, 0.85), 142);
        assert_eq!(estimated_sweeps(1e-300, 0.85), 4251);
        assert_eq!(estimated_sweeps(0.5, 0.85), 5);
        // Degenerate inputs clamp to one sweep.
        assert_eq!(estimated_sweeps(1.0, 0.85), 1);
        assert_eq!(estimated_sweeps(1e-12, 0.0), 1);
    }

    #[test]
    fn pool_sizing_table() {
        const D: usize = DEFAULT_EDGES_PER_THREAD;
        // Tiny graph: node floor wins regardless of configured threads.
        assert_eq!(pool_threads(4, 0, 8, 100, 1_000, 171), 1);
        // The 120k-host / 1.1M-edge bench graph keeps its requested
        // width: the sweep-scaled quota is ≈294k edges at 171 sweeps.
        assert_eq!(pool_threads(4, 0, 8, 120_000, 1_100_000, 171), 4);
        // Same graph with `--threads 0` on a 4-core host.
        assert_eq!(pool_threads(0, 0, 4, 120_000, 1_100_000, 142), 4);
        // A shallow solve over a small graph still serializes: 200k
        // edges < one 142-sweep quota (≈354k).
        assert_eq!(pool_threads(4, 0, 8, 40_000, 200_000, 142), 1);
        // A very deep solve pulls the quota to its floor (32k edges), so
        // even a 120k-edge graph keeps two requested workers.
        assert_eq!(pool_threads(2, 0, 8, 40_000, 120_000, 4251), 2);
        // An explicit quota override bypasses sweep scaling entirely.
        assert_eq!(pool_threads(4, 1 << 18, 8, 120_000, 1_100_000, 10), 4);
        // Edge quota trims 8 requested workers down to 3 at the
        // reference sweep count.
        assert_eq!(pool_threads(8, 0, 8, 1 << 20, 3 * D, 96), 3);
        // configured == 0 defers to the hardware count (then caps).
        assert_eq!(pool_threads(0, 0, 2, 1 << 20, 4 * D, 96), 2);
        // An explicit quota of one edge lifts the edge cap entirely.
        assert_eq!(pool_threads(4, 1, 8, 64 * 1024, 10, 171), 4);
        // Zero-size graphs still get one worker.
        assert_eq!(pool_threads(4, 0, 8, 0, 0, 171), 1);
    }

    #[test]
    fn default_edge_quota_serializes_small_graphs() {
        // Without the test override, a 40k-node / 200k-edge graph runs on
        // one worker no matter how many threads are requested — and its
        // result must match the four-worker engine's.
        let g = random_graph(40_000, 200_000, 31);
        let auto = PageRankConfig::default().threads(4);
        let forced = cfg().threads(4);
        let a = solve_uniform(&g, &auto).unwrap();
        let b = solve_uniform(&g, &forced).unwrap();
        for i in 0..g.node_count() {
            assert!((a.scores[i] - b.scores[i]).abs() < 1e-12, "node {i}");
        }
    }

    fn recorded_sizing_event(
        config: &PageRankConfig,
        g: &spammass_graph::Graph,
    ) -> Vec<(String, obs::Json)> {
        let collector = obs::Collector::builder().build();
        {
            let _guard = collector.install();
            solve_uniform(g, config).unwrap();
        }
        let msgs = collector.messages();
        let (_, fields) =
            msgs.iter().find(|(n, _)| n == obs::names::PAGERANK_POOL_SIZING).unwrap().clone();
        fields
    }

    #[test]
    fn sizing_event_names_the_decision() {
        let g = random_graph(40_000, 120_000, 41);
        let fields = recorded_sizing_event(&cfg().threads(3), &g);
        let get = |k: &str| {
            fields
                .iter()
                .find(|(f, _)| f == k)
                .unwrap_or_else(|| panic!("missing field {k}"))
                .1
                .clone()
        };
        assert_eq!(get("nodes").as_f64(), Some(g.node_count() as f64));
        assert_eq!(get("edges").as_f64(), Some(g.edge_count() as f64));
        assert_eq!(get("configured").as_f64(), Some(3.0));
        // cfg() overrides the quota to 1 edge/worker.
        assert_eq!(get("edges_per_thread").as_f64(), Some(1.0));
        assert_eq!(get("chosen").as_f64(), Some(3.0));
        assert_eq!(get("sweeps_hint").as_f64(), Some(171.0));
        assert_eq!(get("path").as_str(), Some("pooled"));
        // Node floor and request tie at three; the request is named.
        assert_eq!(get("cap").as_str(), Some("configured"));
        assert!(get("hardware").as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn a_one_worker_solve_is_recorded_as_a_pool_of_one() {
        // Default quota on a 40k/200k graph: one worker, recorded as the
        // engine's pool — the only route there is.
        let g = random_graph(40_000, 200_000, 43);
        let fields = recorded_sizing_event(&PageRankConfig::default().threads(4), &g);
        let get = |k: &str| fields.iter().find(|(f, _)| f == k).unwrap().1.clone();
        assert_eq!(get("chosen").as_f64(), Some(1.0));
        assert_eq!(get("cap").as_str(), Some("edge_quota"));
        assert_eq!(get("path").as_str(), Some("pooled"));
    }

    #[test]
    fn a_tiny_graph_is_solved_by_the_engine() {
        // Four nodes, one worker: the engine's span and no reference
        // solver's, and Algorithm 1's answer within two fixed-point
        // bounds `c·ε/(1−c)`.
        let g = GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 0), (3, 2)]);
        let config = PageRankConfig::default();
        let collector = obs::Collector::builder().build();
        let r = {
            let _guard = collector.install();
            solve_uniform(&g, &config).unwrap()
        };
        let spans = collector.spans();
        assert!(spans.iter().any(|s| s.name == "pagerank.solve.batch"));
        assert!(!spans.iter().any(|s| s.name == "pagerank.solve.jacobi"));
        let a = solve_jacobi(&g, &JumpVector::Uniform, &config).unwrap();
        let c = config.damping;
        let l1: f64 = a.scores.iter().zip(&r.scores).map(|(x, y)| (x - y).abs()).sum();
        assert!(l1 <= 2.0 * c * config.tolerance / (1.0 - c), "L1 {l1:e}");
        assert!(r.converged);
    }

    #[test]
    fn the_solve_span_counts_rows_by_kind() {
        // 0, 1 and 2 link on (live), 3 has no in-edges (fixed), 4 no
        // out-links (terminal); the live rows hold 5 in-edges.
        let g = GraphBuilder::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 0), (3, 2), (2, 4)]);
        let collector = obs::Collector::builder().build();
        {
            let _guard = collector.install();
            solve_uniform(&g, &PageRankConfig::default()).unwrap();
        }
        let spans = collector.spans();
        let span = spans.iter().find(|s| s.name == "pagerank.solve.batch").unwrap();
        let counter = |k: &str| span.counters.iter().find(|(name, _)| name == k).unwrap().1;
        let counts = ["live_rows", "fixed_rows", "terminal_rows", "gathered_edges"].map(counter);
        assert_eq!(counts, [3.0, 1.0, 1.0, 5.0]);
    }

    #[test]
    fn the_resident_solve_reports_its_rounds_and_row_kinds() {
        // Every row kind, on one to three workers: the pool runs the
        // sweeps plus a set-up round and a finish round, and the span
        // counts each kind's rows and the live rows' in-edges.
        let g = random_graph(40_000, 120_000, 59);
        let kind_of = |y: spammass_graph::NodeId| match (g.in_degree(y), g.out_degree(y)) {
            (0, _) => 1,
            (_, 0) => 2,
            _ => 0,
        };
        let mut want = [0.0f64; 4];
        for y in g.nodes() {
            want[kind_of(y)] += 1.0;
            if kind_of(y) == 0 {
                want[3] += g.in_degree(y) as f64;
            }
        }
        assert!(want[1] > 0.0 && want[2] > 0.0, "{want:?}");
        let jumps = [
            JumpVector::Uniform,
            JumpVector::core((0..4_000).map(spammass_graph::NodeId).collect(), g.node_count()),
        ];
        for threads in [1usize, 2, 3] {
            let collector = obs::Collector::builder().build();
            {
                let _guard = collector.install();
                solve_batch(&g, &jumps, &cfg().threads(threads)).unwrap();
            }
            let spans = collector.spans();
            let span = spans.iter().find(|s| s.name == "pagerank.solve.batch").unwrap();
            let counter = |k: &str| span.counters.iter().find(|(name, _)| name == k).unwrap().1;
            assert_eq!(counter("threads"), threads as f64);
            assert_eq!(counter("rounds"), counter("iterations") + 2.0, "{threads} workers");
            let got = ["live_rows", "fixed_rows", "terminal_rows", "gathered_edges"].map(counter);
            assert_eq!(got, want, "{threads} workers");
        }
    }

    #[test]
    fn pool_size_gauge_is_recorded() {
        let collector = obs::Collector::builder().build();
        let g = random_graph(40_000, 120_000, 37);
        {
            let _guard = collector.install();
            solve_uniform(&g, &cfg().threads(3)).unwrap();
        }
        let metrics = collector.metrics_snapshot();
        let gauge = metrics.iter().find(|(k, _)| k == "pagerank.pool.threads").unwrap();
        assert_eq!(gauge.1, obs::Metric::Gauge(3.0));
    }
}
