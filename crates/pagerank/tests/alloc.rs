//! Allocation accounting for the engine.
//!
//! The engine hoists every buffer (iterate, contribution pair,
//! coefficient table, jump specs, partition, per-chunk residual slots,
//! scratch, residual-history sample storage) out of the iteration loop,
//! so after setup the sweep loop performs **zero heap allocations**. This
//! harness pins that with a counting global allocator: two solves
//! differing only in iteration count must allocate exactly the same
//! number of times — any per-iteration allocation would scale with the
//! count and break the equality.
//!
//! The allocator also tracks live bytes and their peak, which pins the
//! streamed solve's budget: the heap it holds at its peak must be no more
//! than `resident_bytes_needed` says, or a caller's `--max-resident-mb`
//! is a promise the solve breaks.

use spammass_graph::Orientation;
use spammass_graph::{graph_to_bytes_v4_with, CompressedImage, GraphBuilder, NodeId, V4Config};
use spammass_pagerank::stream::{resident_bytes_needed, streamed_workers};
use spammass_pagerank::{
    solve_batch, solve_batch_streamed, JumpVector, PageRankConfig, PageRankError,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed, and the most there have been since
/// the last [`peak_bytes_during`] began.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // Counted as the allocation of the new block before the old one
        // is freed — what a moving realloc holds at its peak.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// The counters are process-global and the harness runs tests on
/// parallel threads, so every test here holds this lock for its whole
/// body: no other test allocates inside its counted regions.
static COUNTED: Mutex<()> = Mutex::new(());

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// Runs `f` and returns the most heap it held beyond what was live when
/// it began — the bytes it allocated and still held at its peak.
fn peak_bytes_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed) - base, out)
}

/// A graph big enough to engage the threaded path (n ≥ 2·MIN_CHUNK).
fn test_graph() -> spammass_graph::Graph {
    let n: u32 = 40_000;
    let mut b = GraphBuilder::with_capacity(n as usize, 3 * n as usize);
    // Deterministic pseudo-random edges without pulling in a RNG (keeps
    // allocation behavior identical across runs).
    let mut state = 0x2545F4914F6CDD1Du64;
    for _ in 0..(3 * n) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let f = (state >> 32) as u32 % n;
        let t = state as u32 % n;
        if f != t {
            b.add_edge(NodeId(f), NodeId(t));
        }
    }
    // Template rows: eight consecutive sources per destination, which the
    // v4 codec stores as an interval — the row shape whose decode used to
    // allocate.
    for y in 0..4_000u32 {
        for x in y + 10..y + 18 {
            b.add_edge(NodeId(x), NodeId(y));
        }
    }
    b.build()
}

/// Runs a capped solve and returns its allocation count. The cap makes
/// the iteration count exact (tolerance is unreachably tight), so the
/// only difference between two calls is how many sweeps run.
fn capped_solve_allocations(graph: &spammass_graph::Graph, iterations: usize) -> usize {
    let config = PageRankConfig::default().threads(2).max_iterations(iterations).tolerance(1e-300);
    let (allocations, result) =
        allocations_during(|| solve_batch(graph, &[JumpVector::Uniform], &config));
    assert!(
        matches!(result, Err(PageRankError::DidNotConverge { iterations: i, .. }) if i == iterations),
        "solve must run exactly {iterations} sweeps"
    );
    allocations
}

fn capped_batch_allocations(graph: &spammass_graph::Graph, iterations: usize) -> usize {
    let config = PageRankConfig::default().threads(2).max_iterations(iterations).tolerance(1e-300);
    let jumps = [
        JumpVector::Uniform,
        JumpVector::core((0..1000).map(NodeId).collect(), graph.node_count()),
    ];
    let (allocations, result) = allocations_during(|| solve_batch(graph, &jumps, &config));
    assert!(result.is_err(), "capped batch must not converge");
    allocations
}

/// A tiny-block v4 image of `graph`: dozens of blocks per worker.
fn tiny_block_image(graph: &spammass_graph::Graph) -> CompressedImage {
    let blocks = V4Config { rows_per_block: 512, edges_per_block: 2048 };
    let bytes = graph_to_bytes_v4_with(graph, blocks).expect("v4 encode");
    CompressedImage::from_store(std::sync::Arc::new(bytes)).expect("v4 image")
}

/// The streamed solve over a tiny-block v4 image of the same graph: two
/// workers, each decoding dozens of blocks — interval rows included —
/// into its own scratch every sweep.
fn capped_streamed_allocations(graph: &spammass_graph::Graph, iterations: usize) -> usize {
    let image = tiny_block_image(graph);
    let config = PageRankConfig::default().threads(2).max_iterations(iterations).tolerance(1e-300);
    let jumps = [
        JumpVector::Uniform,
        JumpVector::core((0..1000).map(NodeId).collect(), graph.node_count()),
    ];
    let (allocations, result) =
        allocations_during(|| solve_batch_streamed(&image, &jumps, &config, u64::MAX));
    assert!(
        matches!(result, Err(PageRankError::DidNotConverge { iterations: i, .. }) if i == iterations),
        "streamed solve must run exactly {iterations} sweeps"
    );
    allocations
}

#[test]
fn solves_do_not_allocate_per_iteration() {
    let _counted = COUNTED.lock().unwrap_or_else(|e| e.into_inner());
    let graph = test_graph();
    for (case, count) in [
        ("1-column", capped_solve_allocations as fn(&spammass_graph::Graph, usize) -> usize),
        ("2-column", capped_batch_allocations),
        ("streamed 2-column", capped_streamed_allocations),
    ] {
        // Warm up: first run pays one-time costs (thread-local telemetry
        // probes, lazy runtime state).
        let _ = count(&graph, 4);
        let short = count(&graph, 8);
        let long = count(&graph, 64);
        assert_eq!(
            short, long,
            "{case} solve: allocation count must not scale with iterations: \
             {short} for 8 sweeps vs {long} for 64"
        );
    }
}

/// A solve that converges runs the finish round over its rows without
/// out-links after its last sweep. Two such solves of the same graph
/// that stop after different numbers of sweeps must allocate the same
/// number of times: neither the sweeps nor the finish round (nor, for the
/// streamed solve, the round that writes the rows without in-edges)
/// allocates.
#[test]
fn converging_solves_and_their_finish_round_do_not_allocate() {
    let _counted = COUNTED.lock().unwrap_or_else(|e| e.into_inner());
    let graph = test_graph();
    let n = graph.node_count();
    let terminal = graph.nodes().filter(|&y| graph.in_degree(y) > 0 && graph.out_degree(y) == 0);
    assert!(terminal.count() > 100, "the finish round must have rows to finish");
    let image = tiny_block_image(&graph);
    let jumps = [JumpVector::Uniform, JumpVector::core((0..1000).map(NodeId).collect(), n)];
    let iterations = |results: Vec<spammass_pagerank::PageRankResult>| results[0].iterations;
    allocate_alike_whatever_the_sweeps("resident", |config| {
        iterations(solve_batch(&graph, &jumps, config).unwrap())
    });
    allocate_alike_whatever_the_sweeps("streamed", |config| {
        iterations(solve_batch_streamed(&image, &jumps, config, u64::MAX).unwrap())
    });
}

/// Runs `solve` (returning its sweep count) to a loose and to a tight
/// tolerance on two workers and asserts both allocate the same number
/// of times.
fn allocate_alike_whatever_the_sweeps(case: &str, solve: impl Fn(&PageRankConfig) -> usize) {
    let config =
        |tolerance| PageRankConfig::default().threads(2).edges_per_thread(1).tolerance(tolerance);
    let _ = solve(&config(1e-3));
    let (loose, loose_sweeps) = allocations_during(|| solve(&config(1e-4)));
    let (tight, tight_sweeps) = allocations_during(|| solve(&config(1e-12)));
    assert!(tight_sweeps > loose_sweeps + 10, "{case}: {loose_sweeps} vs {tight_sweeps}");
    assert_eq!(
        loose, tight,
        "{case} solve: allocation count must not scale with iterations: {loose} for \
         {loose_sweeps} sweeps vs {tight} for {tight_sweeps}"
    );
}

/// A converging streamed solve on two workers holds no more heap than
/// `resident_bytes_needed` counts for it: the iterate and its two
/// contribution buffers, the coefficients, the jump specs (a bitset for
/// the core, a dense copy for a custom vector), the scores of earlier
/// chunks and the block scratches.
#[test]
fn a_streamed_solve_stays_within_its_resident_bytes() {
    let _counted = COUNTED.lock().unwrap_or_else(|e| e.into_inner());
    let graph = test_graph();
    let n = graph.node_count();
    let image = tiny_block_image(&graph);
    let config = PageRankConfig::default().threads(2).edges_per_thread(1);
    let (max_rows, max_edges) = image.max_block_dims();
    let blocks = image.block_count(Orientation::Out) + image.block_count(Orientation::In);
    let custom: Vec<f64> = (0..n).map(|y| (1 + y % 3) as f64 / (2 * n) as f64).collect();
    let pair = vec![JumpVector::Uniform, JumpVector::core((0..1000).map(NodeId).collect(), n)];
    for (case, jumps) in [
        ("[Uniform, Core]", pair.clone()),
        ("[Custom]", vec![JumpVector::Custom(custom)]),
        // Two chunks: the first chunk's scores stay live while the
        // second sweeps.
        ("[Uniform, Core] × 4", pair.iter().cycle().take(8).cloned().collect()),
    ] {
        let workers = streamed_workers(&image, &jumps, &config, u64::MAX).unwrap();
        assert_eq!(workers, 2, "{case}");
        let budget = resident_bytes_needed(n, &jumps, max_rows, max_edges, blocks, workers);
        let (peak, result) =
            peak_bytes_during(|| solve_batch_streamed(&image, &jumps, &config, budget));
        let results = result.unwrap_or_else(|e| panic!("{case}: {e}"));
        assert!(results.iter().all(|r| r.converged), "{case}");
        assert!(
            peak as u64 <= budget,
            "{case}: the solve held {peak} bytes at its peak, over the {budget} it asked for"
        );
    }
}

/// A converging resident solve holds, at its peak, the buffers it always
/// held — the iterate, both contribution buffers, the coefficients and
/// the result columns — plus its row lists, at most 4 bytes a row, and
/// the few KiB of bookkeeping beside them (residual histories, the
/// partition, the pool: 14 KiB here before the lists came).
#[test]
fn a_resident_solve_holds_its_buffers_plus_four_bytes_a_row() {
    let _counted = COUNTED.lock().unwrap_or_else(|e| e.into_inner());
    let graph = test_graph();
    let n = graph.node_count();
    let jumps = [JumpVector::Uniform, JumpVector::core((0..1000).map(NodeId).collect(), n)];
    let k = jumps.len();
    // p, q twice and coef: 8n(3K + 1); the result columns: 8nK.
    let buffers = 8 * n * (3 * k + 1) + 8 * n * k;
    for threads in [1usize, 2] {
        let config = PageRankConfig::default().threads(threads).edges_per_thread(1);
        let (peak, result) = peak_bytes_during(|| solve_batch(&graph, &jumps, &config));
        assert!(result.unwrap().iter().all(|r| r.converged));
        assert!(
            peak <= buffers + 4 * n + 16 * 1024,
            "{threads} workers: the solve held {peak} bytes at its peak, {} over its \
             {buffers} bytes of buffers",
            peak - buffers
        );
    }
}
