//! Incremental re-estimation: fold a crawl delta into a previous run.
//!
//! A full estimation on a re-crawled web repeats two global PageRank
//! solves from scratch, although only a small fraction of links changed.
//! [`MassEstimator::update`] instead:
//!
//! 1. replays a [`DeltaRecord`] stream onto the saved graph and good
//!    core (via `spammass-delta`'s [`GraphDelta`] applier),
//! 2. **warm-starts** the batched `[p, p′]` solve from the saved score
//!    vectors — the linear system `(I − c·Tᵀ)p = (1−c)v` has a unique
//!    solution and Jacobi contracts from any start, so seeding near the
//!    old fixed point converges to the *same* answer as a cold solve,
//!    in far fewer sweeps when the delta is small,
//! 3. re-runs Algorithm 2 and reports the **churn**: newly flagged
//!    nodes, newly cleared nodes, and the largest spam-mass shifts.
//!
//! New nodes (the graph only ever grows) get their seed entries from
//! `(1−c)·v` — the exact fixed point for a node with no in-links, and a
//! far better guess than the cold start's `v` for a typical fresh node.
//! If the warm solve fails — its own retry included — the estimator
//! falls back to the full cold [`MassEstimator::estimate`] path (counter
//! `estimate.warm_fallback`); the result contract is unchanged either way.

use crate::detector::{detect, detect_raw, Detection, DetectionDiff, DetectorConfig};
use crate::estimate::{EstimateError, EstimateReport, MassEstimator};
use crate::mass::relative_mass;
use spammass_delta::{DeltaRecord, GraphDelta, SavedState};
use spammass_graph::{Graph, NodeId};
use spammass_obs as obs;
use spammass_pagerank::{solve_columns, JumpVector};

/// One node's change in scaled absolute spam mass across an update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MassShift {
    /// The node.
    pub node: NodeId,
    /// Scaled estimated mass before the update (0 for new nodes).
    pub before: f64,
    /// Scaled estimated mass after the update.
    pub after: f64,
}

impl MassShift {
    /// Signed change `after − before`.
    pub fn delta(&self) -> f64 {
        self.after - self.before
    }
}

/// Everything an incremental re-estimation produced.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// The patched graph — save it (with [`UpdateReport::core`] and the
    /// new score vectors) so the next update can chain off this one.
    pub graph: Graph,
    /// The good core after applying the delta's membership records.
    pub core: Vec<NodeId>,
    /// The fresh estimate on the patched graph.
    pub estimate: EstimateReport,
    /// What the delta did to the graph (effective op counts, affected
    /// nodes, dangling changes).
    pub apply: spammass_delta::ApplyReport,
    /// Algorithm 2 re-run from the *saved* vectors — the baseline the
    /// diff is computed against. Costs one O(n) scan, no solve.
    pub previous: Detection,
    /// Algorithm 2 on the fresh estimate.
    pub detection: Detection,
    /// Churn between the two detections.
    pub diff: DetectionDiff,
    /// Scaled absolute mass per node from the saved run (old node count;
    /// input to [`UpdateReport::top_mass_shifts`]).
    pub previous_scaled_absolute: Vec<f64>,
    /// `true` when the warm-started batched solve produced the estimate;
    /// `false` when it failed and the cold fallback ran instead.
    pub warm: bool,
    /// Core membership changes that took effect.
    pub core_added: usize,
    /// Core membership removals that took effect.
    pub core_removed: usize,
}

impl UpdateReport {
    /// The `k` nodes whose scaled absolute mass moved the most (by
    /// magnitude, descending). Nodes that did not exist before the
    /// update enter with a `before` of zero.
    pub fn top_mass_shifts(&self, k: usize) -> Vec<MassShift> {
        let scale = self.estimate.scale();
        let mut shifts: Vec<MassShift> = (0..self.estimate.len())
            .map(|i| MassShift {
                node: NodeId::from_index(i),
                before: self.previous_scaled_absolute.get(i).copied().unwrap_or(0.0),
                after: self.estimate.absolute[i] * scale,
            })
            .collect();
        shifts.sort_by(|a, b| b.delta().abs().total_cmp(&a.delta().abs()));
        shifts.truncate(k);
        shifts
    }
}

impl MassEstimator {
    /// Incrementally re-estimates after a crawl delta.
    ///
    /// Consumes the [`SavedState`] of a previous run (graph, good core,
    /// `p`, `p′`), applies `records`, warm-starts the batched solve from
    /// the saved vectors, and re-runs Algorithm 2 under `detector`. The
    /// returned [`UpdateReport`] carries the patched graph and core so
    /// the caller can persist them for the next increment.
    ///
    /// # Errors
    /// [`EstimateError::EmptyCore`] when the delta empties the good
    /// core; configuration and solver failures as in
    /// [`MassEstimator::estimate`] (the cold fallback's error if both
    /// paths fail).
    pub fn update(
        &self,
        state: SavedState,
        records: &[DeltaRecord],
        detector: &DetectorConfig,
    ) -> Result<UpdateReport, EstimateError> {
        self.config().validate()?;
        let SavedState { mut graph, mut core, pagerank, core_pagerank } = state;
        let old_n = graph.node_count();
        let damping = self.config().pagerank.damping;

        // Reconstruct the previous detection from the saved vectors — an
        // O(n) scan, no solve — so the diff has a baseline even though
        // the previous run only persisted scores.
        let prev_absolute: Vec<f64> =
            pagerank.iter().zip(&core_pagerank).map(|(&p, &pc)| p - pc).collect();
        let prev_relative = relative_mass(&pagerank, &prev_absolute);
        let prev_scale = old_n as f64 / (1.0 - damping);
        let previous = detect_raw(&pagerank, &prev_relative, prev_scale, detector);
        let previous_scaled_absolute: Vec<f64> =
            prev_absolute.iter().map(|&m| m * prev_scale).collect();

        let delta = GraphDelta::from_records(records);
        let apply = delta.apply(&mut graph);
        let (core_added, core_removed) = delta.apply_to_core(&mut core);
        if core.is_empty() {
            return Err(EstimateError::EmptyCore);
        }

        let n = graph.node_count();
        let jumps = [JumpVector::Uniform, self.core_jump(&core, n)];
        // Seed rows for new nodes with `(1−c)·v` — the exact fixed point
        // for a node with no in-links, and much closer than the cold
        // start's `v` for the typical fresh node (its score is dominated
        // by the jump term until the link structure feeds it).
        let v_uniform = jumps[0].materialize(n).map_err(EstimateError::Config)?;
        let v_core = jumps[1].materialize(n).map_err(EstimateError::Config)?;
        let mut seed_p = pagerank;
        seed_p.extend(v_uniform[old_n..].iter().map(|&v| (1.0 - damping) * v));
        let mut seed_pc = core_pagerank;
        seed_pc.extend(v_core[old_n..].iter().map(|&v| (1.0 - damping) * v));
        // The uniform jump is 1/n per node, so growing the graph rescales
        // the entire fixed point by old_n/n — a *global* perturbation that
        // would eat most of the warm start's head start. Pre-scale the
        // carried-over entries so the solve only has to absorb the local
        // edge changes. The unscaled core jump (1/n per member) shrinks
        // the same way; the γ-scaled core jump keeps total mass γ
        // regardless of n and needs no correction.
        if n > old_n {
            let shrink = old_n as f64 / n as f64;
            for x in seed_p.iter_mut().take(old_n) {
                *x *= shrink;
            }
            if matches!(self.config().scaling, crate::estimate::CoreScaling::Unscaled) {
                for x in seed_pc.iter_mut().take(old_n) {
                    *x *= shrink;
                }
            }
        }
        let seeds = [seed_p, seed_pc];

        let warm_span = obs::span("estimate.warm");
        let outcome = solve_columns(&graph, &jumps, Some(&seeds), &self.config().pagerank);
        drop(warm_span);

        let (estimate, warm) = match outcome {
            Ok(solve) => {
                obs::observe("estimate.warm.iterations", solve.columns[0].iterations as f64);
                let (attempts, cap) = (solve.attempts.len(), solve.cap());
                (self.pair_report(&core, "batch-warm", attempts, cap, solve.columns), true)
            }
            Err(e) => {
                // Warm seeding cannot change the fixed point, but a warm
                // solve can still trip the convergence guard (e.g. on a
                // pathological delta); recover through the cold path.
                obs::counter("estimate.warm_fallback", 1.0);
                obs::event(
                    "estimate.warm_fallback",
                    vec![("error".to_string(), obs::Json::str(e.to_string()))],
                );
                (self.estimate(&graph, &core)?, false)
            }
        };

        let detection = detect(&estimate.mass, detector);
        let diff = DetectionDiff::between(&previous, &detection);
        obs::counter("estimate.update.newly_flagged", diff.newly_flagged.len() as f64);
        obs::counter("estimate.update.newly_cleared", diff.newly_cleared.len() as f64);

        Ok(UpdateReport {
            graph,
            core,
            estimate,
            apply,
            previous,
            detection,
            diff,
            previous_scaled_absolute,
            warm,
            core_added,
            core_removed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::EstimatorConfig;
    use crate::examples_paper::figure2;
    use spammass_pagerank::PageRankConfig;

    fn pr_cfg() -> PageRankConfig {
        PageRankConfig::default().tolerance(1e-14).max_iterations(10_000)
    }

    fn estimator() -> MassEstimator {
        // Unscaled core — the Section 3.4/3.6 worked-example setting, where
        // ρ = 1.5, τ = 0.5 flags exactly {x, g2, s0} on Figure 2.
        MassEstimator::new(EstimatorConfig::unscaled().with_pagerank(pr_cfg()))
    }

    fn det_cfg() -> DetectorConfig {
        DetectorConfig { rho: 1.5, tau: 0.5 }
    }

    fn saved_state(est: &MassEstimator) -> SavedState {
        let f = figure2();
        let report = est.estimate(&f.graph, &f.good_core()).unwrap();
        SavedState {
            core: f.good_core(),
            graph: f.graph,
            pagerank: report.mass.pagerank.clone(),
            core_pagerank: report.mass.core_pagerank.clone(),
        }
    }

    #[test]
    fn warm_update_matches_cold_re_estimate() {
        let f = figure2();
        let est = estimator();
        let state = saved_state(&est);
        let records = vec![
            DeltaRecord::AddNode { node: NodeId(13) },
            DeltaRecord::AddEdge { from: NodeId(13), to: f.s[0] },
            DeltaRecord::AddEdge { from: f.s[0], to: NodeId(13) },
            DeltaRecord::RemoveEdge { from: f.g[0], to: f.g[1] },
        ];
        let report = est.update(state, &records, &det_cfg()).unwrap();
        assert!(report.warm, "warm solve should succeed on a healthy delta");
        assert_eq!(report.graph.node_count(), 14);

        // Cold reference: apply the same delta, estimate from scratch.
        let mut g = figure2().graph;
        let mut core = f.good_core();
        let delta = GraphDelta::from_records(&records);
        delta.apply(&mut g);
        delta.apply_to_core(&mut core);
        let cold = est.estimate(&g, &core).unwrap();
        let cold_det = detect(&cold.mass, &det_cfg());

        assert_eq!(report.detection.candidates, cold_det.candidates);
        for i in 0..report.estimate.len() {
            assert!(
                (report.estimate.pagerank[i] - cold.pagerank[i]).abs() <= 1e-9,
                "p[{i}]: warm {} vs cold {}",
                report.estimate.pagerank[i],
                cold.pagerank[i]
            );
            assert!(
                (report.estimate.core_pagerank[i] - cold.core_pagerank[i]).abs() <= 1e-9,
                "p'[{i}]"
            );
        }
    }

    #[test]
    fn empty_delta_reports_no_churn() {
        let est = estimator();
        let state = saved_state(&est);
        let report = est.update(state, &[], &det_cfg()).unwrap();
        assert!(report.diff.is_unchanged());
        assert_eq!(report.previous.candidates, report.detection.candidates);
        assert_eq!(report.apply.edges_added + report.apply.edges_removed, 0);
        assert!(report.warm);
        // Re-detecting from converged scores flips nothing; mass shifts
        // are solver-tolerance noise only.
        for shift in report.top_mass_shifts(3) {
            assert!(shift.delta().abs() < 1e-6, "{shift:?}");
        }
    }

    #[test]
    fn new_spam_farm_is_newly_flagged() {
        // Bolt a small farm onto the Figure 2 graph: boosters pointing at
        // a fresh target that reflects back. The target must enter the
        // flagged set; previously flagged nodes stay flagged.
        let f = figure2();
        let est = estimator();
        let state = saved_state(&est);
        let target = NodeId(12);
        let mut records = vec![DeltaRecord::AddNode { node: target }];
        for b in 13..19u32 {
            records.push(DeltaRecord::AddNode { node: NodeId(b) });
            records.push(DeltaRecord::AddEdge { from: NodeId(b), to: target });
            records.push(DeltaRecord::AddEdge { from: target, to: NodeId(b) });
        }
        let report = est.update(state, &records, &det_cfg()).unwrap();
        assert!(
            report.diff.newly_flagged.contains(&target),
            "farm target must be newly flagged: {:?}",
            report.diff
        );
        assert!(report.detection.is_candidate(f.s[0]), "old spam stays flagged");
        let top = report.top_mass_shifts(1);
        assert_eq!(top.len(), 1);
        assert!(top[0].delta() > 0.0);
    }

    #[test]
    fn core_changes_flow_through() {
        let f = figure2();
        let est = estimator();
        let state = saved_state(&est);
        // Vet g2 (the documented false positive) into the core.
        let records = vec![DeltaRecord::CoreAdd { node: f.g[2] }];
        let report = est.update(state, &records, &det_cfg()).unwrap();
        assert_eq!((report.core_added, report.core_removed), (1, 0));
        assert!(report.core.contains(&f.g[2]));
        assert!(
            report.diff.newly_cleared.contains(&f.g[2]),
            "core members' mass drops, clearing the false positive: {:?}",
            report.diff
        );
    }

    #[test]
    fn emptying_the_core_is_an_error() {
        let f = figure2();
        let est = estimator();
        let state = saved_state(&est);
        let records: Vec<DeltaRecord> =
            f.good_core().iter().map(|&node| DeltaRecord::CoreRemove { node }).collect();
        assert!(matches!(est.update(state, &records, &det_cfg()), Err(EstimateError::EmptyCore)));
    }

    #[test]
    fn chained_updates_stay_consistent() {
        // Two increments applied one at a time equal one cold estimate of
        // the final graph.
        let f = figure2();
        let est = estimator();
        let state = saved_state(&est);
        let step1 = vec![DeltaRecord::AddEdge { from: f.g[1], to: f.g[3] }];
        let step2 = vec![DeltaRecord::RemoveEdge { from: f.g[1], to: f.g[3] }];
        let r1 = est.update(state, &step1, &det_cfg()).unwrap();
        let next = SavedState {
            graph: r1.graph,
            core: r1.core,
            pagerank: r1.estimate.mass.pagerank.clone(),
            core_pagerank: r1.estimate.mass.core_pagerank.clone(),
        };
        let r2 = est.update(next, &step2, &det_cfg()).unwrap();
        // The add/remove pair cancels: back to the original estimate.
        let original = est.estimate(&figure2().graph, &f.good_core()).unwrap();
        for i in 0..original.len() {
            assert!((r2.estimate.pagerank[i] - original.pagerank[i]).abs() <= 1e-9);
        }
        assert_eq!(detect(&original.mass, &det_cfg()).candidates, r2.detection.candidates);
    }
}
