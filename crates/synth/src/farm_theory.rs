//! Closed-form PageRank of spam-farm topologies.
//!
//! The paper's Section 2.3 farm model builds on *Link Spam Alliances*
//! (Gyöngyi & Garcia-Molina, VLDB 2005 — reference \[8\]), which derives
//! the PageRank a farm earns its target. These closed forms, on the
//! paper's scaled axis (`n/(1−c)`, leaf score = 1), document exactly how
//! much each topology in [`crate::farms`] amplifies — and the test-suite
//! pins the solver to them.
//!
//! With `c` the damping factor and `B` boosters:
//!
//! * **star, no back-links**: boosters score 1;
//!   `p_t = 1 + c·B`.
//! * **star with full back-links** (the optimal single-target farm):
//!   the target↔booster circulation amplifies by `1/(1 − c²)`:
//!   `p_t = (1 + c·B)/(1 − c²)`, boosters `p_b = 1 + c·p_t/B`.
//! * **ring with full back-links** (each booster → next booster and →
//!   target): half of each booster's mass returns to the ring:
//!   `p_b = (1 + c/B) / (1 − c/2 − c²/2)` and the target collects
//!   `p_t = 1 + (c/2)·B·p_b` (for `B ≥ 2`).
//! * **clique, no back-links**: boosters amplify each other,
//!   `p_b = 1/(1 − c·(B−1)/B)`, target `p_t = 1 + c·p_b`
//!   (each booster gives the target only a `1/B` share — why cliques are
//!   a *bad* farm design).

/// Scaled PageRank of a star farm's target without back-links.
pub fn star_target(c: f64, boosters: usize) -> f64 {
    1.0 + c * boosters as f64
}

/// Scaled PageRank of the optimal (full back-link) star farm's target.
pub fn star_backlinked_target(c: f64, boosters: usize) -> f64 {
    (1.0 + c * boosters as f64) / (1.0 - c * c)
}

/// Scaled PageRank of each booster in the optimal star farm.
pub fn star_backlinked_booster(c: f64, boosters: usize) -> f64 {
    1.0 + c * star_backlinked_target(c, boosters) / boosters as f64
}

/// Scaled PageRank of each booster in a back-linked ring farm (`B ≥ 2`).
pub fn ring_backlinked_booster(c: f64, boosters: usize) -> f64 {
    (1.0 + c / boosters as f64) / (1.0 - c / 2.0 - c * c / 2.0)
}

/// Scaled PageRank of a back-linked ring farm's target (`B ≥ 2`).
pub fn ring_backlinked_target(c: f64, boosters: usize) -> f64 {
    1.0 + (c / 2.0) * boosters as f64 * ring_backlinked_booster(c, boosters)
}

/// Scaled PageRank of each booster in a clique farm without back-links
/// (`B ≥ 2`; boosters link to all fellow boosters and the target).
pub fn clique_booster(c: f64, boosters: usize) -> f64 {
    let b = boosters as f64;
    1.0 / (1.0 - c * (b - 1.0) / b)
}

/// Scaled PageRank of a clique farm's target without back-links.
pub fn clique_target(c: f64, boosters: usize) -> f64 {
    1.0 + c * clique_booster(c, boosters)
}

/// The optimal-farm amplification factor `1/(1 − c²)` — how much the
/// full back-link circulation multiplies the naive star payoff
/// (≈ 3.6 at c = 0.85).
pub fn optimal_amplification(c: f64) -> f64 {
    1.0 / (1.0 - c * c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farms::{inject_farm, FarmConfig, FarmTopology};
    use crate::webmodel::WebBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spammass_graph::Graph;
    use spammass_pagerank::{solve_columns, JumpVector, PageRankConfig};

    const C: f64 = 0.85;

    fn solve_scaled(graph: &Graph) -> Vec<f64> {
        // 1e-13 stays far below the 1e-6/1e-8 assertion tolerances while
        // leaving headroom above the residual's floating-point floor.
        let cfg = PageRankConfig::default().tolerance(1e-13).max_iterations(50_000);
        let solve = solve_columns(graph, &[JumpVector::Uniform], None, &cfg)
            .expect("farm graphs converge at 1e-13");
        let scale = graph.node_count() as f64 / (1.0 - C);
        solve.columns[0].scores.iter().map(|&p| p * scale).collect()
    }

    fn farm(
        topology: FarmTopology,
        boosters: usize,
        backlink: bool,
    ) -> (Graph, crate::farms::Farm) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = WebBuilder::new();
        let cfg =
            FarmConfig { topology, target_links_back: backlink, ..FarmConfig::star(boosters) };
        let farm = inject_farm(&mut b, &mut rng, 0, &cfg, &[], &[]);
        (b.build_graph(), farm)
    }

    #[test]
    fn star_no_backlink_matches_closed_form() {
        for boosters in [1usize, 10, 100] {
            let (g, f) = farm(FarmTopology::Star, boosters, false);
            let p = solve_scaled(&g);
            assert!(
                (p[f.target.index()] - star_target(C, boosters)).abs() < 1e-8,
                "B={boosters}: {} vs {}",
                p[f.target.index()],
                star_target(C, boosters)
            );
            assert!((p[f.boosters[0].index()] - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn optimal_star_matches_closed_form() {
        for boosters in [2usize, 30, 200] {
            let (g, f) = farm(FarmTopology::Star, boosters, true);
            let p = solve_scaled(&g);
            let want_t = star_backlinked_target(C, boosters);
            let want_b = star_backlinked_booster(C, boosters);
            assert!(
                (p[f.target.index()] - want_t).abs() < 1e-6,
                "B={boosters}: target {} vs {want_t}",
                p[f.target.index()]
            );
            assert!(
                (p[f.boosters[0].index()] - want_b).abs() < 1e-6,
                "B={boosters}: booster {} vs {want_b}",
                p[f.boosters[0].index()]
            );
        }
    }

    #[test]
    fn ring_matches_closed_form() {
        for boosters in [3usize, 25, 120] {
            let (g, f) = farm(FarmTopology::Ring, boosters, true);
            let p = solve_scaled(&g);
            let want_t = ring_backlinked_target(C, boosters);
            let want_b = ring_backlinked_booster(C, boosters);
            assert!(
                (p[f.target.index()] - want_t).abs() < 1e-6,
                "B={boosters}: target {} vs {want_t}",
                p[f.target.index()]
            );
            for &booster in &f.boosters {
                assert!(
                    (p[booster.index()] - want_b).abs() < 1e-6,
                    "B={boosters}: booster {} vs {want_b}",
                    p[booster.index()]
                );
            }
        }
    }

    #[test]
    fn clique_matches_closed_form() {
        for boosters in [5usize, 30] {
            let (g, f) = farm(FarmTopology::Clique, boosters, false);
            let p = solve_scaled(&g);
            let want_b = clique_booster(C, boosters);
            let want_t = clique_target(C, boosters);
            assert!(
                (p[f.boosters[0].index()] - want_b).abs() < 1e-6,
                "B={boosters}: booster {} vs {want_b}",
                p[f.boosters[0].index()]
            );
            assert!(
                (p[f.target.index()] - want_t).abs() < 1e-6,
                "B={boosters}: target {} vs {want_t}",
                p[f.target.index()]
            );
        }
    }

    #[test]
    fn optimal_farm_dominates_other_topologies() {
        // Reference [8]'s point: for the same booster budget, the
        // back-linked star pays the target the most.
        let b = 50;
        assert!(star_backlinked_target(C, b) > star_target(C, b));
        assert!(star_backlinked_target(C, b) > ring_backlinked_target(C, b));
        assert!(star_backlinked_target(C, b) > clique_target(C, b));
        // And the amplification is the advertised 1/(1−c²) ≈ 3.6.
        assert!((optimal_amplification(C) - 3.6036).abs() < 0.001);
        assert!(
            (star_backlinked_target(C, b) / star_target(C, b) - optimal_amplification(C)).abs()
                < 0.1
        );
    }

    #[test]
    fn booster_scores_stay_small_in_sane_topologies() {
        // The generator relies on boosters staying below detection
        // thresholds; the closed forms say exactly how small.
        assert!(star_backlinked_booster(C, 100) < 5.0);
        assert!(ring_backlinked_booster(C, 50) < 10.0);
        assert!(clique_booster(C, 30) < 6.0);
    }
}
