//! Property-based invariants of linear PageRank.

use proptest::prelude::*;
use spammass_graph::{Graph, GraphBuilder, NodeId, NodeOrdering, Permutation};
use spammass_pagerank::batch::{solve_batch, solve_batch_warm};
use spammass_pagerank::contribution::{contribution_of_node, contribution_of_set};
use spammass_pagerank::reference::jacobi::solve_jacobi_dense_warm;
use spammass_pagerank::{solve_batch_streamed, JumpVector, PageRankConfig};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..=25).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..80).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (f, t) in edges {
                if f != t {
                    b.add_edge(NodeId(f), NodeId(t));
                }
            }
            b.build()
        })
    })
}

fn cfg() -> PageRankConfig {
    PageRankConfig::default().tolerance(1e-14).max_iterations(20_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Elementwise bounds: `(1−c)·v ≤ p` and `‖p‖ ≤ ‖v‖`.
    #[test]
    fn score_bounds(g in arb_graph()) {
        let n = g.node_count();
        let v = JumpVector::Uniform.materialize(n).unwrap();
        let r = solve_jacobi_dense_warm(&g, &v, None, &cfg()).unwrap();
        prop_assert!(r.converged);
        let c = 0.85;
        for (vi, si) in v.iter().zip(&r.scores) {
            prop_assert!(*si >= (1.0 - c) * vi - 1e-12);
        }
        let total: f64 = r.scores.iter().sum();
        prop_assert!(total <= 1.0 + 1e-9, "norm {total}");
    }

    /// Mass conservation: the jump input equals the retained mass plus
    /// the mass lost at dangling nodes, iteration by iteration — verified
    /// at the fixed point: ‖p‖ = ‖v‖ − c·(dangling mass of p)... i.e.
    /// ‖p‖ = (1−c)‖v‖ + c(‖p‖ − dᵀp) rearranged.
    #[test]
    fn mass_balance_at_fixed_point(g in arb_graph()) {
        let n = g.node_count();
        let v = JumpVector::Uniform.materialize(n).unwrap();
        let r = solve_jacobi_dense_warm(&g, &v, None, &cfg()).unwrap();
        let norm_p: f64 = r.scores.iter().sum();
        let dangling: f64 = g.dangling_nodes().map(|x| r.scores[x.index()]).sum();
        let norm_v: f64 = v.iter().sum();
        // p = c·Tᵀp + (1−c)v  ⇒  ‖p‖ = c(‖p‖ − dᵀp) + (1−c)‖v‖.
        let lhs = norm_p;
        let rhs = 0.85 * (norm_p - dangling) + 0.15 * norm_v;
        prop_assert!((lhs - rhs).abs() < 1e-10, "{lhs} vs {rhs}");
    }

    /// A node with no inlinks scores exactly `(1−c)·v_x` (scaled: 1).
    #[test]
    fn no_inlink_nodes_score_baseline(g in arb_graph()) {
        let n = g.node_count();
        let v = JumpVector::Uniform.materialize(n).unwrap();
        let r = solve_jacobi_dense_warm(&g, &v, None, &cfg()).unwrap();
        for x in g.nodes() {
            if g.in_degree(x) == 0 {
                prop_assert!((r.scores[x.index()] - 0.15 * v[x.index()]).abs() < 1e-12);
            }
        }
    }

    /// Jacobi is a c-contraction: successive residuals shrink at least
    /// geometrically with factor c. The recorded history may be thinned
    /// (stride > 1), so compare across the iteration gap: between samples
    /// k iterations apart the residual must shrink by at least 0.85^k.
    #[test]
    fn residual_history_contracts(g in arb_graph()) {
        let n = g.node_count();
        let v = JumpVector::Uniform.materialize(n).unwrap();
        let r = solve_jacobi_dense_warm(&g, &v, None, &cfg()).unwrap();
        prop_assert_eq!(r.residual_history.observed(), r.iterations);
        prop_assert_eq!(r.residual_history.last(), Some(r.residual));
        for w in r.residual_history.series().windows(2) {
            let (i0, r0) = w[0];
            let (i1, r1) = w[1];
            let bound = 0.85f64.powi((i1 - i0) as i32) * r0 + 1e-15;
            prop_assert!(
                r1 <= bound,
                "residuals must contract: iter {} ({}) -> iter {} ({})",
                i0, r0, i1, r1
            );
        }
    }

    /// Set contribution equals the sum of member contributions for random
    /// subsets (Theorem 2 + linearity).
    #[test]
    fn set_contribution_additivity(g in arb_graph(), mask in proptest::collection::vec(any::<bool>(), 25)) {
        let n = g.node_count();
        let set: Vec<NodeId> = g.nodes().filter(|x| mask[x.index()]).collect();
        prop_assume!(!set.is_empty());
        let config = cfg();
        let q_set = contribution_of_set(&g, &set, &config).unwrap();
        let mut summed = vec![0.0f64; n];
        for &x in &set {
            let q = contribution_of_node(&g, x, 1.0 / n as f64, &config).unwrap();
            for (s, qy) in summed.iter_mut().zip(&q) {
                *s += qy;
            }
        }
        for i in 0..n {
            prop_assert!((q_set[i] - summed[i]).abs() < 1e-10);
        }
    }

    /// Damping sweep: as c → 0, scores approach the jump vector.
    #[test]
    fn damping_zero_limit(g in arb_graph()) {
        let n = g.node_count();
        let v = JumpVector::Uniform.materialize(n).unwrap();
        let config = PageRankConfig::with_damping(1e-9).tolerance(1e-14).max_iterations(100);
        let r = solve_jacobi_dense_warm(&g, &v, None, &config).unwrap();
        for (vi, si) in v.iter().zip(&r.scores) {
            prop_assert!((si - vi).abs() < 1e-6);
        }
    }

    /// `solve_batch` matches k independent reference (Algorithm 1) runs
    /// to ≤ 1e-12 per node on arbitrary graphs with mixed jump shapes.
    #[test]
    fn batch_matches_independent_solves(g in arb_graph(), mask in proptest::collection::vec(any::<bool>(), 25)) {
        let n = g.node_count();
        let core: Vec<NodeId> = g.nodes().filter(|x| mask[x.index()]).collect();
        prop_assume!(!core.is_empty());
        let first = core[0];
        let jumps = vec![
            JumpVector::Uniform,
            JumpVector::core(core, n),
            JumpVector::SingleNode { node: first, mass: 1.0 / n as f64 },
        ];
        let config = cfg();
        let batch = solve_batch(&g, &jumps, &config).unwrap();
        prop_assert_eq!(batch.len(), jumps.len());
        for (jump, col) in jumps.iter().zip(&batch) {
            prop_assert!(col.converged);
            let solo = solve_jacobi_dense_warm(&g, &jump.materialize(n).unwrap(), None, &config).unwrap();
            for i in 0..n {
                prop_assert!(
                    (solo.scores[i] - col.scores[i]).abs() <= 1e-12,
                    "node {}: {} vs {}", i, solo.scores[i], col.scores[i]
                );
            }
        }
    }

    /// Warm starts land on the cold fixed point: the linear system has a
    /// unique solution and Jacobi contracts from any finite start, so a
    /// solve seeded with the *pre-delta* scores must agree with a cold
    /// solve of the perturbed graph to ≤ 1e-12 per node. Seeding with the
    /// exact fixed point can never take more sweeps than the cold solve.
    #[test]
    fn warm_start_converges_to_cold_fixed_point(g in arb_graph()) {
        let n = g.node_count();
        let config = cfg();
        let v = JumpVector::Uniform.materialize(n).unwrap();
        let before = solve_jacobi_dense_warm(&g, &v, None, &config).unwrap();

        // Small delta: drop the lexicographically first edge (identity on
        // edgeless graphs, where warm == cold trivially).
        let first = g.edges().next();
        let perturbed = g.filter_edges(|f, t| Some((f, t)) != first);
        let cold = solve_jacobi_dense_warm(&perturbed, &v, None, &config).unwrap();

        let warm = solve_jacobi_dense_warm(&perturbed, &v, Some(&before.scores), &config).unwrap();
        prop_assert!(warm.converged);
        for i in 0..n {
            prop_assert!(
                (warm.scores[i] - cold.scores[i]).abs() <= 1e-12,
                "node {}: warm {} vs cold {}", i, warm.scores[i], cold.scores[i]
            );
        }

        let settled =
            solve_jacobi_dense_warm(&perturbed, &v, Some(&cold.scores), &config).unwrap();
        prop_assert!(settled.iterations <= cold.iterations,
            "fixed-point seed took {} iterations vs cold {}", settled.iterations, cold.iterations);
        for i in 0..n {
            prop_assert!((settled.scores[i] - cold.scores[i]).abs() <= 1e-12);
        }
    }

    /// Seeding each batch column with its own cold fixed point
    /// reproduces the cold scores to ≤ 1e-12 without extra iterations.
    #[test]
    fn warm_start_batch_matches_cold(g in arb_graph(), mask in proptest::collection::vec(any::<bool>(), 25)) {
        let n = g.node_count();
        let core: Vec<NodeId> = g.nodes().filter(|x| mask[x.index()]).collect();
        prop_assume!(!core.is_empty());
        let config = cfg();
        let jumps = vec![JumpVector::Uniform, JumpVector::core(core, n)];
        let cold = solve_batch(&g, &jumps, &config).unwrap();
        let seeds: Vec<Vec<f64>> = cold.iter().map(|r| r.scores.clone()).collect();

        let warm = solve_batch_warm(&g, &jumps, Some(&seeds), &config).unwrap();
        prop_assert_eq!(warm.len(), cold.len());
        for (c, w) in cold.iter().zip(&warm) {
            prop_assert!(w.converged);
            prop_assert!(w.iterations <= c.iterations,
                "warm column took {} iterations vs cold {}", w.iterations, c.iterations);
            for i in 0..n {
                prop_assert!((w.scores[i] - c.scores[i]).abs() <= 1e-12);
            }
        }
    }

    /// Solves are bit-for-bit deterministic across repeated runs.
    #[test]
    fn solves_are_deterministic(g in arb_graph()) {
        let config = cfg();
        let jumps = [JumpVector::Uniform];
        let x = solve_batch(&g, &jumps, &config).unwrap();
        let y = solve_batch(&g, &jumps, &config).unwrap();
        prop_assert_eq!(&x[0].scores, &y[0].scores);
        prop_assert_eq!(x[0].iterations, y[0].iterations);
    }
}

/// A reproducible random graph big enough to clear the pool's node floor
/// (16k rows per worker), so `.threads(k)` genuinely runs k workers.
fn pooled_random_graph(seed: u64) -> Graph {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let (n, m) = (40_000u32, 120_000usize);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n as usize, m);
    for _ in 0..m {
        let f = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        if f != t {
            b.add_edge(NodeId(f), NodeId(t));
        }
    }
    b.build()
}

/// Pooled config: an edge quota of one so the configured thread count
/// survives the auto-sizer on the 120k-edge test graphs.
fn pooled_cfg() -> PageRankConfig {
    PageRankConfig::default().tolerance(1e-12).max_iterations(20_000).edges_per_thread(1)
}

proptest! {
    // Each case runs several 40k-node pooled solves; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Pooled solves are deterministic: a fixed thread count reproduces
    /// scores bit-for-bit across runs, and different thread counts agree
    /// to ≤ 1e-12 (the cut moves which reads are fresh, not the fixed
    /// point).
    #[test]
    fn pooled_solves_are_deterministic_and_thread_count_invariant(
        seed in 0u64..1 << 20, t1 in 2usize..=4, t2 in 2usize..=4
    ) {
        let g = pooled_random_graph(seed);
        let cfg1 = pooled_cfg().threads(t1);
        let solve = |config: &PageRankConfig| {
            solve_batch(&g, &[JumpVector::Uniform], config).unwrap().remove(0)
        };
        let a = solve(&cfg1);
        let b = solve(&cfg1);
        prop_assert_eq!(&a.scores, &b.scores);
        prop_assert_eq!(a.iterations, b.iterations);
        prop_assert_eq!(a.residual.to_bits(), b.residual.to_bits());
        let c = solve(&pooled_cfg().threads(t2));
        for i in 0..g.node_count() {
            prop_assert!(
                (a.scores[i] - c.scores[i]).abs() <= 1e-12,
                "node {}: {}t {} vs {}t {}", i, t1, a.scores[i], t2, c.scores[i]
            );
        }
    }
}

/// Preferential attachment via a repeated-endpoints trick: each new node
/// draws `links` endpoints from the edge list (degree-proportional),
/// using a deterministic xorshift stream.
fn preferential_attachment_edges(n: u32, links: usize) -> Vec<(u32, u32)> {
    let mut endpoints: Vec<u32> = vec![0, 1];
    let mut edges: Vec<(u32, u32)> = vec![(1, 0)];
    let mut state = 0x9E3779B97F4A7C15u64;
    for x in 2..n {
        for _ in 0..links {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let t = endpoints[(state as usize) % endpoints.len()];
            if t != x {
                edges.push((x, t));
                endpoints.push(t);
                endpoints.push(x);
            }
        }
    }
    edges
}

/// The incremental-update payoff, pinned deterministically: after a ~1%
/// edge delta on a 20k-node power-law graph, a solve warm-started from
/// the pre-delta fixed point must reach the *same* fixed point as a cold
/// solve (≤ 1e-12 per node) in **strictly fewer** iterations — the warm
/// iterate starts O(‖δ‖) from the answer instead of O(1).
#[test]
fn warm_start_saves_iterations_after_small_delta() {
    let n = 20_000u32;
    let edges = preferential_attachment_edges(n, 5);
    let g = GraphBuilder::from_edges(n as usize, &edges);
    let config = cfg();
    let v = JumpVector::Uniform.materialize(g.node_count()).unwrap();
    let before = solve_jacobi_dense_warm(&g, &v, None, &config).unwrap();

    // ~1% delta: drop every 100th edge of the sorted edge stream.
    let mut seen = 0usize;
    let perturbed = g.filter_edges(|_, _| {
        seen += 1;
        !seen.is_multiple_of(100)
    });
    assert!(perturbed.edge_count() < g.edge_count());

    let cold = solve_jacobi_dense_warm(&perturbed, &v, None, &config).unwrap();
    let warm = solve_jacobi_dense_warm(&perturbed, &v, Some(&before.scores), &config).unwrap();
    assert!(
        warm.iterations < cold.iterations,
        "warm solve took {} iterations, cold took {}",
        warm.iterations,
        cold.iterations
    );
    for i in 0..g.node_count() {
        assert!(
            (warm.scores[i] - cold.scores[i]).abs() <= 1e-12,
            "node {}: warm {} vs cold {}",
            i,
            warm.scores[i],
            cold.scores[i]
        );
    }

    // The production warm path saves the same iterations on the same delta.
    let warm_batch =
        solve_batch_warm(&perturbed, &[JumpVector::Uniform], Some(&[before.scores]), &config)
            .unwrap()
            .remove(0);
    assert!(warm_batch.iterations < cold.iterations);
    for i in 0..g.node_count() {
        assert!((warm_batch.scores[i] - cold.scores[i]).abs() <= 1e-12);
    }
}

/// `‖(1−c)v + cTᵀp − p‖₁`: the linear-system residual of `p`,
/// recomputed from the out-edges.
fn linear_residual(g: &Graph, v: &[f64], p: &[f64], c: f64) -> f64 {
    let mut r: Vec<f64> = v.iter().map(|x| (1.0 - c) * x).collect();
    for x in g.nodes() {
        let out = g.out_neighbors(x);
        for t in out {
            r[t.index()] += c * p[x.index()] / out.len() as f64;
        }
    }
    r.iter().zip(p).map(|(a, b)| (a - b).abs()).sum()
}

/// Share of edges `x → y` with `x < y`: the links an in-place sweep can
/// read fresh when one worker relaxes both ends.
fn forward_fraction(g: &Graph) -> f64 {
    let forward: usize = g.nodes().map(|y| g.in_neighbors(y).partition_point(|x| *x < y)).sum();
    forward as f64 / g.edge_count() as f64
}

/// The one parity table: every way the engine can be asked to run the
/// same solve gives the same answer. Over {links to older ids, the same
/// graph with ids reversed} × {threads 1, 2, 4} × {K = 1, 2} × {cold,
/// warm seed} × {resident, streamed}: scores within 1e-12 of Algorithm 1
/// (`solve_jacobi_dense_warm`); a column bit-identical whichever batch
/// width it is solved under; the streamed solve (tiny blocks, dozens of
/// decodes per sweep) on one worker bit-identical to the one-worker
/// resident solve — scores, iteration count and residual — and on 2 and
/// 4 workers bit-reproducible for a fixed `(image, workers)` and within
/// 1e-12 of itself on one. Every cell's recomputed linear residual is at
/// most `c` times its reported residual (`chain`'s module docs): a result
/// one buffer stale fails that. Node order is a dimension too: each graph
/// renumbered into degree order, with the core column renumbered alike,
/// solves cold at K = 2 on 1 and 2 workers to within 1e-12 of the
/// natural-order oracle once the scores are mapped back. The other two
/// jump kinds — a custom vector and a single node — solve cold as one
/// K = 2 batch, resident and streamed, on 1, 2 and 4 workers under the
/// same oracle, batch-width and one-worker checks. A small graph (2k
/// nodes, one worker) is a cell of its own: resident and streamed are
/// bit-identical there too, and both lie within `2·c·ε/(1−c)` in L1 of
/// Algorithm 1 — each solution within `c·ε/(1−c)` of the fixed point.
/// A graph built to hold every row kind the sweep tells apart — isolated
/// rows, rows with out-links but no in-edges, rows with in-edges but no
/// out-links, and one such row wide enough to straddle the middle of the
/// edge array — is a cell of its own under the same bound, on 1, 2 and 4
/// workers, cold and warm, with every cell's linear residual checked over
/// all rows, every row without in-edges at `(1−c)·v[y]` bit for bit, and
/// the one-worker streamed solve bit-identical to the resident one. At
/// `c = 0` every row with in-edges is terminal and the answer is the jump
/// vector itself, bit for bit, on every source.
///
/// The reversed graph is what makes the in-place sweep visible: in the
/// original every link points to an older id, so no in-edge is ever read
/// fresh, while reversed every link points forward.
#[test]
fn engine_parity_table() {
    // Hubs wide enough for the gather kernel's accumulator banks and ≥ 4
    // node-floor quotas so four workers survive the auto-sizer.
    let n = 66_000u32;
    let edges = preferential_attachment_edges(n, 6);
    let older = GraphBuilder::from_edges(n as usize, &edges);
    let reversed: Vec<(u32, u32)> = edges.iter().map(|&(f, t)| (n - 1 - f, n - 1 - t)).collect();
    let newer = GraphBuilder::from_edges(n as usize, &reversed);
    assert_eq!(forward_fraction(&older), 0.0);
    assert!(forward_fraction(&newer) > 0.5, "{}", forward_fraction(&newer));
    for (name, g) in [("older", &older), ("reversed", &newer)] {
        assert!(g.nodes().map(|y| g.in_degree(y)).max().unwrap() >= 64, "{name}");
        parity_cells(name, g);
    }
    small_graph_cell();
    row_kinds_cell();
    no_damping_cell();
}

/// The small-graph cell of [`engine_parity_table`]: 2k nodes on one
/// worker, under the default sizing rule.
fn small_graph_cell() {
    use spammass_graph::{graph_to_bytes_v4_with, CompressedImage, V4Config};

    let n = 2_000u32;
    let g = GraphBuilder::from_edges(n as usize, &preferential_attachment_edges(n, 6));
    let n = g.node_count();
    let jumps =
        [JumpVector::Uniform, JumpVector::core((0..n as u32 / 10).map(NodeId).collect(), n)];
    let config = PageRankConfig::default().threads(1);
    let c = config.damping;
    let bound = 2.0 * c * config.tolerance / (1.0 - c);
    let blocks = V4Config { rows_per_block: 256, edges_per_block: 1024 };
    let image = CompressedImage::from_store(std::sync::Arc::new(
        graph_to_bytes_v4_with(&g, blocks).unwrap(),
    ))
    .unwrap();
    let resident = solve_batch(&g, &jumps, &config).unwrap();
    let streamed = solve_batch_streamed(&image, &jumps, &config, u64::MAX).unwrap();
    for j in 0..2 {
        let cell = format!("small graph column={j}");
        let (r, s) = (&resident[j], &streamed[j]);
        assert!(r.scores.iter().zip(&s.scores).all(|(a, b)| a.to_bits() == b.to_bits()), "{cell}");
        assert_eq!(r.iterations, s.iterations, "{cell}");
        assert_eq!(r.residual.to_bits(), s.residual.to_bits(), "{cell}");
        let v = jumps[j].materialize(n).unwrap();
        let oracle = solve_jacobi_dense_warm(&g, &v, None, &config).unwrap().scores;
        let l1: f64 = r.scores.iter().zip(&oracle).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 <= bound, "{cell}: {l1:e} in L1 from Algorithm 1 (bound {bound:e})");
    }
}

/// 66k nodes of four kinds by id: `y % 10 == 0` isolated, `1` linking
/// out to four random rows but linked from nowhere, `2` linked to but
/// linking nowhere, the rest linking out four times. Row `n/2 + 2`, of
/// the third kind, also takes an in-edge from every third node of the
/// fourth kind, so its edges hold the middle of the in-CSR edge array;
/// row `n/2 + 3`, of the fourth kind, takes one from every fifth, so its
/// edges hold the middle of the edges a sweep gathers, where a cut in
/// two or four falls.
fn row_kinds_graph() -> Graph {
    let n = 66_000u32;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |bound: u32| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % u64::from(bound)) as u32
    };
    let hub = n / 2 + 2;
    let mut edges = Vec::new();
    for x in 0..n {
        if x % 10 == 0 || x % 10 == 2 {
            continue;
        }
        for _ in 0..4 {
            // Any row but an isolated one or one linked from nowhere.
            let t = loop {
                let t = next(n);
                if t % 10 != 0 && t % 10 != 1 && t != x {
                    break t;
                }
            };
            edges.push((x, t));
        }
        if x % 10 > 2 && x % 3 == 0 {
            edges.push((x, hub));
        }
        if x % 10 > 2 && x % 5 == 0 && x != hub + 1 {
            edges.push((x, hub + 1));
        }
    }
    GraphBuilder::from_edges(n as usize, &edges)
}

/// The row-kinds cell of [`engine_parity_table`].
fn row_kinds_cell() {
    use spammass_graph::{graph_to_bytes_v4_with, CompressedImage, V4Config};

    let g = row_kinds_graph();
    let n = g.node_count();
    let hub = NodeId(n as u32 / 2 + 2);
    let (m, offsets) = (g.edge_count(), g.in_offsets());
    // The hub has no out-links and holds the middle edge: an equal
    // all-edge cut at 2 or 4 workers would fall inside its row.
    assert_eq!(g.out_degree(hub), 0);
    let hub_edges = offsets[hub.index()] as usize..offsets[hub.index() + 1] as usize;
    assert!(hub_edges.start < m / 2 && m / 2 < hub_edges.end, "{hub_edges:?} of {m}");
    let kinds = |y: NodeId| (g.in_degree(y) == 0, g.out_degree(y) == 0);
    for kind in [(true, true), (true, false), (false, true), (false, false)] {
        assert!(g.nodes().filter(|&y| kinds(y) == kind).count() >= 1_000, "{kind:?}");
    }

    let jumps =
        [JumpVector::Uniform, JumpVector::core((0..n as u32).step_by(7).map(NodeId).collect(), n)];
    let vs: Vec<Vec<f64>> = jumps.iter().map(|j| j.materialize(n).unwrap()).collect();
    let seeds: Vec<Vec<f64>> = vs
        .iter()
        .map(|v| v.iter().enumerate().map(|(y, x)| x * (0.5 + (y % 7) as f64 / 7.0)).collect())
        .collect();
    let config = pooled_cfg();
    let c = config.damping;
    let bound = 2.0 * c * config.tolerance / (1.0 - c);
    let oracle: Vec<Vec<f64>> =
        vs.iter().map(|v| solve_jacobi_dense_warm(&g, v, None, &config).unwrap().scores).collect();
    let blocks = V4Config { rows_per_block: 512, edges_per_block: 2048 };
    let image = CompressedImage::from_store(std::sync::Arc::new(
        graph_to_bytes_v4_with(&g, blocks).unwrap(),
    ))
    .unwrap();
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let fixed: Vec<usize> = g.nodes().filter(|&y| g.in_degree(y) == 0).map(|y| y.index()).collect();
    for warm in [false, true] {
        for threads in [1usize, 2, 4] {
            let cfg_t = config.threads(threads);
            let seed = warm.then_some(&seeds[..]);
            let resident = solve_batch_warm(&g, &jumps, seed, &cfg_t).unwrap();
            let streamed =
                (!warm).then(|| solve_batch_streamed(&image, &jumps, &cfg_t, u64::MAX).unwrap());
            for j in 0..2 {
                let mut cells = vec![("resident", &resident[j])];
                if let Some(s) = &streamed {
                    cells.push(("streamed", &s[j]));
                }
                for (source, r) in cells {
                    let cell =
                        format!("row kinds {source} warm={warm} threads={threads} column={j}");
                    // Written once before the first sweep, with the bits
                    // a relaxation gives a row without in-edges.
                    for &y in &fixed {
                        let want = (vs[j][y] * (1.0 - c)).to_bits();
                        assert_eq!(r.scores[y].to_bits(), want, "{cell}: fixed row {y}");
                    }
                    let l1: f64 = r.scores.iter().zip(&oracle[j]).map(|(a, b)| (a - b).abs()).sum();
                    assert!(l1 <= bound, "{cell}: {l1:e} in L1 from Algorithm 1 (bound {bound:e})");
                    let recomputed = linear_residual(&g, &vs[j], &r.scores, c);
                    assert!(
                        recomputed <= c * r.residual + 1e-15,
                        "{cell}: linear residual {recomputed:e} over c × reported {:e}",
                        r.residual
                    );
                }
                if let (Some(s), 1) = (&streamed, threads) {
                    let cell = format!("row kinds threads=1 column={j}");
                    assert_eq!(bits(&s[j].scores), bits(&resident[j].scores), "{cell}");
                    assert_eq!(s[j].iterations, resident[j].iterations, "{cell}");
                    assert_eq!(s[j].residual.to_bits(), resident[j].residual.to_bits(), "{cell}");
                }
            }
        }
    }
}

/// The `c = 0` cell of [`engine_parity_table`]: `p = v` exactly. No row
/// has a contribution, so every row with in-edges is terminal and the
/// finish round gathers it, and the solve stops after its first sweep.
fn no_damping_cell() {
    use spammass_graph::{graph_to_bytes_v4_with, CompressedImage, V4Config};

    let g = row_kinds_graph();
    let n = g.node_count();
    let jumps =
        [JumpVector::Uniform, JumpVector::core((0..n as u32).step_by(7).map(NodeId).collect(), n)];
    let config = pooled_cfg();
    let undamped = PageRankConfig { damping: 0.0, ..config };
    let image = CompressedImage::from_store(std::sync::Arc::new(
        graph_to_bytes_v4_with(&g, V4Config { rows_per_block: 512, edges_per_block: 2048 })
            .unwrap(),
    ))
    .unwrap();
    for threads in [1usize, 2, 4] {
        let cfg_t = undamped.threads(threads);
        let resident = solve_batch(&g, &jumps, &cfg_t).unwrap();
        let streamed = solve_batch_streamed(&image, &jumps, &cfg_t, u64::MAX).unwrap();
        for (j, jump) in jumps.iter().enumerate() {
            let v = jump.materialize(n).unwrap();
            for (source, r) in [("resident", &resident[j]), ("streamed", &streamed[j])] {
                let cell = format!("c = 0 {source} threads={threads} column={j}");
                assert!(
                    r.scores.iter().zip(&v).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{cell}: p is not v"
                );
                assert_eq!((r.iterations, r.residual), (1, 0.0), "{cell}");
            }
        }
    }
}

/// The cells of [`engine_parity_table`] for one graph.
fn parity_cells(name: &str, g: &Graph) {
    use spammass_graph::{graph_to_bytes_v4_with, CompressedImage, V4Config};

    let n = g.node_count();
    let core: Vec<NodeId> = (0..n as u32 / 10).map(NodeId).collect();
    let jumps = [JumpVector::Uniform, JumpVector::core(core.clone(), n)];
    let vs: Vec<Vec<f64>> = jumps.iter().map(|j| j.materialize(n).unwrap()).collect();
    // Warm seeds: each column's jump vector bent away from both the cold
    // start and the fixed point.
    let seeds: Vec<Vec<f64>> = vs
        .iter()
        .map(|v| v.iter().enumerate().map(|(y, x)| x * (0.5 + (y % 7) as f64 / 7.0)).collect())
        .collect();
    let config = pooled_cfg();
    let c = config.damping;
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let max_diff =
        |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f64, f64::max);
    let assert_residual =
        |cell: &str, g: &Graph, v: &[f64], r: &spammass_pagerank::PageRankResult| {
            // Plus the rounding of the recomputation itself: 6e-17 where a
            // sweep's step is exactly zero (one worker solves the reversed
            // graph, a DAG in id order, in a single pass).
            let recomputed = linear_residual(g, v, &r.scores, c);
            assert!(
                recomputed <= c * r.residual + 1e-15,
                "{cell}: linear residual {recomputed:e} over c × reported {:e}",
                r.residual
            );
        };
    // Tiny blocks: dozens of decodes per worker per sweep.
    let blocks = V4Config { rows_per_block: 512, edges_per_block: 2048 };
    let image = CompressedImage::from_store(std::sync::Arc::new(
        graph_to_bytes_v4_with(g, blocks).unwrap(),
    ))
    .unwrap();
    // The streamed one-worker cells, which the wider ones compare to.
    let mut streamed_one = Vec::new();
    let perm = Permutation::compute(g, NodeOrdering::DegreeDescending);
    let permuted = perm.permute_graph(g);
    let permuted_jumps = [JumpVector::Uniform, JumpVector::core(perm.permute_nodes(&core), n)];

    for warm in [false, true] {
        let oracle: Vec<Vec<f64>> = (0..2)
            .map(|j| {
                let seed = warm.then(|| &seeds[j][..]);
                solve_jacobi_dense_warm(g, &vs[j], seed, &config).unwrap().scores
            })
            .collect();
        for threads in [1usize, 2, 4] {
            let cfg_t = config.threads(threads);
            let seed = |cols: std::ops::Range<usize>| warm.then(|| &seeds[cols]);
            let pair = solve_batch_warm(g, &jumps, seed(0..2), &cfg_t).unwrap();
            for j in 0..2 {
                let cell = format!("{name} warm={warm} threads={threads} column={j}");
                let drift = max_diff(&pair[j].scores, &oracle[j]);
                assert!(drift <= 1e-12, "{cell}: {drift:e} from Algorithm 1");
                assert_residual(&cell, g, &vs[j], &pair[j]);
                let solo =
                    solve_batch_warm(g, &jumps[j..=j], seed(j..j + 1), &cfg_t).unwrap().remove(0);
                assert_eq!(bits(&solo.scores), bits(&pair[j].scores), "{cell}: K=1 vs K=2");
                assert_eq!(solo.iterations, pair[j].iterations, "{cell}");
                assert_eq!(solo.residual.to_bits(), pair[j].residual.to_bits(), "{cell}");
            }
            if !warm && threads <= 2 {
                let reordered = solve_batch_warm(&permuted, &permuted_jumps, None, &cfg_t).unwrap();
                for j in 0..2 {
                    let cell = format!("{name} degree order threads={threads} column={j}");
                    let restored = perm.restore_values(&reordered[j].scores);
                    let drift = max_diff(&restored, &oracle[j]);
                    assert!(drift <= 1e-12, "{cell}: {drift:e} from Algorithm 1");
                    let v = permuted_jumps[j].materialize(n).unwrap();
                    assert_residual(&cell, &permuted, &v, &reordered[j]);
                }
            }
            if !warm {
                // Streamed × {K = 1, 2} at this thread count. One worker
                // is the resident one-worker solve bit for bit; more
                // workers start their fresh reads at other rows.
                let streamed_pair = solve_batch_streamed(&image, &jumps, &cfg_t, u64::MAX).unwrap();
                if threads == 1 {
                    streamed_one = streamed_pair.clone();
                } else {
                    let again = solve_batch_streamed(&image, &jumps, &cfg_t, u64::MAX).unwrap();
                    for (a, b) in again.iter().zip(&streamed_pair) {
                        let cell = format!("{name} streamed threads={threads}, run twice");
                        assert_eq!(bits(&a.scores), bits(&b.scores), "{cell}");
                        assert_eq!(a.iterations, b.iterations, "{cell}");
                        assert_eq!(a.residual.to_bits(), b.residual.to_bits(), "{cell}");
                    }
                }
                for j in 0..2 {
                    let cell = format!("{name} streamed threads={threads} column={j}");
                    let s = &streamed_pair[j];
                    assert_residual(&cell, g, &vs[j], s);
                    let solo = solve_batch_streamed(&image, &jumps[j..=j], &cfg_t, u64::MAX)
                        .unwrap()
                        .remove(0);
                    assert_eq!(bits(&solo.scores), bits(&s.scores), "{cell}: K=1 vs K=2");
                    assert_eq!(solo.iterations, s.iterations, "{cell}");
                    assert_eq!(solo.residual.to_bits(), s.residual.to_bits(), "{cell}");
                    if threads == 1 {
                        assert_eq!(bits(&s.scores), bits(&pair[j].scores), "{cell}");
                        assert_eq!(s.iterations, pair[j].iterations, "{cell}");
                        assert_eq!(s.residual.to_bits(), pair[j].residual.to_bits(), "{cell}");
                    } else {
                        let spread = max_diff(&s.scores, &streamed_one[j].scores);
                        assert!(spread <= 1e-12, "{cell}: {spread:e} from one worker");
                    }
                }
            }
        }
    }

    // The other two jump kinds, cold: a custom vector (a dense spec) and
    // a single node (a one-bit set), resident and streamed.
    let custom: Vec<f64> = (0..n).map(|y| (1 + y % 5) as f64 / (3 * n) as f64).collect();
    let other = [
        JumpVector::Custom(custom),
        JumpVector::SingleNode { node: NodeId(n as u32 / 3), mass: 0.5 },
    ];
    let other_vs: Vec<Vec<f64>> = other.iter().map(|j| j.materialize(n).unwrap()).collect();
    let oracle: Vec<Vec<f64>> = other_vs
        .iter()
        .map(|v| solve_jacobi_dense_warm(g, v, None, &config).unwrap().scores)
        .collect();
    let mut resident_one = Vec::new();
    for threads in [1usize, 2, 4] {
        let cfg_t = config.threads(threads);
        let pair = solve_batch_warm(g, &other, None, &cfg_t).unwrap();
        let streamed_pair = solve_batch_streamed(&image, &other, &cfg_t, u64::MAX).unwrap();
        if threads == 1 {
            resident_one = pair.clone();
        }
        for j in 0..2 {
            let cell = format!("{name} {} threads={threads}", ["custom", "single node"][j]);
            let drift = max_diff(&pair[j].scores, &oracle[j]);
            assert!(drift <= 1e-12, "{cell}: {drift:e} from Algorithm 1");
            assert_residual(&cell, g, &other_vs[j], &pair[j]);
            let solo = solve_batch_warm(g, &other[j..=j], None, &cfg_t).unwrap().remove(0);
            assert_eq!(bits(&solo.scores), bits(&pair[j].scores), "{cell}: K=1 vs K=2");
            let s = &streamed_pair[j];
            assert_residual(&cell, g, &other_vs[j], s);
            if threads == 1 {
                assert_eq!(bits(&s.scores), bits(&pair[j].scores), "{cell}: streamed");
                assert_eq!(s.iterations, pair[j].iterations, "{cell}: streamed");
            } else {
                let spread = max_diff(&s.scores, &resident_one[j].scores);
                assert!(spread <= 1e-12, "{cell}: streamed {spread:e} from one worker");
            }
        }
    }
}
