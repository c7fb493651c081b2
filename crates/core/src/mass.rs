//! Exact spam mass (Definitions 1–2, Section 3.3).
//!
//! Given a **total** partition `{V⁺, V⁻}`, the PageRank of every node
//! splits as `p_x = q_x^{V⁺} + q_x^{V⁻}`, and:
//!
//! * the **absolute spam mass** is `M_x = q_x^{V⁻}` — by Theorem 2 simply
//!   `M = PR(v^{V⁻})`, a single linear-PageRank run whose jump vector is
//!   the reference jump restricted to the spam side;
//! * the **relative spam mass** is `m_x = M_x / p_x`.
//!
//! Exact mass requires full knowledge of `V⁻`, which is unrealistic on the
//! web — it serves as the ground-truth yardstick the estimators of
//! [`crate::estimate`] are measured against.

use crate::estimate::{solve_staged, EstimateError};
use crate::partition::Partition;
use spammass_graph::{Graph, NodeId};
use spammass_pagerank::{JumpVector, PageRankConfig};

/// Exact spam-mass analysis of a graph under a full partition.
#[derive(Debug, Clone)]
pub struct ExactMass {
    /// Regular PageRank `p = PR(v)` (uniform jump).
    pub pagerank: Vec<f64>,
    /// Good contribution `q^{V⁺} = PR(v^{V⁺})`.
    pub good_contribution: Vec<f64>,
    /// Absolute spam mass `M = q^{V⁻} = PR(v^{V⁻})` (Definition 1).
    pub absolute: Vec<f64>,
    /// Relative spam mass `m = M/p` (Definition 2).
    pub relative: Vec<f64>,
    damping: f64,
}

impl ExactMass {
    /// Computes exact mass for `graph` under `partition`.
    ///
    /// `PR(v)` and `PR(v^{V⁻})` are the two columns of one solve; the good
    /// contribution falls out of linearity as `p − M` (verified to match
    /// `PR(v^{V⁺})` by the property-test suite).
    ///
    /// # Errors
    /// [`EstimateError::LengthMismatch`] when the partition does not cover
    /// the graph; [`EstimateError::Solver`] when the solve fails.
    pub fn compute(
        graph: &Graph,
        partition: &Partition,
        config: &PageRankConfig,
    ) -> Result<ExactMass, EstimateError> {
        let n = graph.node_count();
        if partition.len() != n {
            return Err(EstimateError::LengthMismatch { got: partition.len(), expected: n });
        }

        // An empty spam side has no jump vector to solve for: M = 0.
        let spam_nodes = partition.spam_nodes();
        let mut jumps = vec![JumpVector::Uniform];
        if !spam_nodes.is_empty() {
            jumps.push(JumpVector::core(spam_nodes, n));
        }
        let mut columns = solve_staged(graph, &jumps, config, "exact-mass")?.columns.into_iter();
        let p = columns.next().expect("the uniform column").scores;
        let absolute = columns.next().map_or_else(|| vec![0.0; n], |m| m.scores);

        let good_contribution: Vec<f64> =
            p.iter().zip(&absolute).map(|(&py, &my)| py - my).collect();
        let relative = relative_mass(&p, &absolute);

        Ok(ExactMass {
            pagerank: p,
            good_contribution,
            absolute,
            relative,
            damping: config.damping,
        })
    }

    /// Scale factor `n/(1−c)` for paper-style readable values.
    pub fn scale(&self) -> f64 {
        self.pagerank.len() as f64 / (1.0 - self.damping)
    }

    /// Scaled PageRank of `x`.
    pub fn scaled_pagerank(&self, x: NodeId) -> f64 {
        self.pagerank[x.index()] * self.scale()
    }

    /// Scaled absolute mass of `x`.
    pub fn scaled_absolute(&self, x: NodeId) -> f64 {
        self.absolute[x.index()] * self.scale()
    }

    /// Relative mass of `x`.
    pub fn relative_of(&self, x: NodeId) -> f64 {
        self.relative[x.index()]
    }
}

/// Computes `m = M/p` elementwise; nodes with `p = 0` get `m = 0`
/// (they receive no PageRank at all, so no mass either — only possible
/// under non-uniform reference jumps).
pub(crate) fn relative_mass(p: &[f64], m: &[f64]) -> Vec<f64> {
    p.iter().zip(m).map(|(&py, &my)| if py > 0.0 { my / py } else { 0.0 }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::{figure1, figure2, table1_expected};
    use spammass_graph::GraphBuilder;

    fn cfg() -> PageRankConfig {
        PageRankConfig::default().tolerance(1e-14).max_iterations(10_000)
    }

    #[test]
    fn table1_exact_columns() {
        // Every p, M, m value of Table 1 (scaled, 12-node Figure 2 graph).
        let f = figure2();
        let exact = ExactMass::compute(&f.graph, &f.partition(), &cfg()).unwrap();
        let expect = table1_expected();
        let nodes: Vec<(&str, NodeId)> = vec![
            ("x", f.x),
            ("g0", f.g[0]),
            ("g1", f.g[1]),
            ("g2", f.g[2]),
            ("g3", f.g[3]),
            ("s0", f.s[0]),
        ];
        for (name, node) in nodes {
            let row = expect.iter().find(|(n, _)| *n == name).unwrap().1;
            assert!(
                (exact.scaled_pagerank(node) - row.p).abs() < 1e-9,
                "{name}: p {} vs {}",
                exact.scaled_pagerank(node),
                row.p
            );
            assert!(
                (exact.scaled_absolute(node) - row.m_abs).abs() < 1e-9,
                "{name}: M {} vs {}",
                exact.scaled_absolute(node),
                row.m_abs
            );
            assert!(
                (exact.relative_of(node) - row.m_rel).abs() < 1e-9,
                "{name}: m {} vs {}",
                exact.relative_of(node),
                row.m_rel
            );
        }
        // s1..s6 all have p = M = scaled 1, m = 1.
        for &si in &f.s[1..] {
            assert!((exact.scaled_pagerank(si) - 1.0).abs() < 1e-9);
            assert!((exact.scaled_absolute(si) - 1.0).abs() < 1e-9);
            assert!((exact.relative_of(si) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn one_two_column_solve_equals_two_algorithm_1_runs() {
        // `[p, M]` as one batch is, on graphs this small, Algorithm 1 per
        // column: bit for bit the two separate solves it replaced.
        use spammass_pagerank::reference::jacobi::solve_jacobi;
        let (f1, f2) = (figure1(5), figure2());
        for (graph, partition) in [(&f1.graph, f1.partition_x_good()), (&f2.graph, f2.partition())]
        {
            let exact = ExactMass::compute(graph, &partition, &cfg()).unwrap();
            let spam = JumpVector::core(partition.spam_nodes(), graph.node_count());
            let p = solve_jacobi(graph, &JumpVector::Uniform, &cfg()).unwrap().scores;
            let m = solve_jacobi(graph, &spam, &cfg()).unwrap().scores;
            assert_eq!(exact.pagerank, p);
            assert_eq!(exact.absolute, m);
        }
    }

    #[test]
    fn figure1_spam_part_closed_form() {
        // With x labelled good, M_x = (c + k·c²)(1−c)/n exactly.
        for k in [1usize, 2, 5] {
            let f = figure1(k);
            let exact = ExactMass::compute(&f.graph, &f.partition_x_good(), &cfg()).unwrap();
            let expected = f.expected_spam_part(0.85);
            assert!(
                (exact.absolute[f.x.index()] - expected).abs() < 1e-12,
                "k={k}: {} vs {expected}",
                exact.absolute[f.x.index()]
            );
        }
    }

    #[test]
    fn decomposition_p_equals_good_plus_spam() {
        let f = figure2();
        let exact = ExactMass::compute(&f.graph, &f.partition(), &cfg()).unwrap();
        for i in 0..12 {
            assert!(
                (exact.pagerank[i] - exact.good_contribution[i] - exact.absolute[i]).abs() < 1e-12
            );
        }
    }

    #[test]
    fn all_good_partition_gives_zero_mass() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]);
        let exact = ExactMass::compute(&g, &Partition::all_good(3), &cfg()).unwrap();
        assert!(exact.absolute.iter().all(|&m| m == 0.0));
        assert!(exact.relative.iter().all(|&m| m == 0.0));
    }

    #[test]
    fn all_spam_partition_gives_relative_one() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]);
        let spam: Vec<NodeId> = (0..3).map(NodeId).collect();
        let exact = ExactMass::compute(&g, &Partition::from_spam_nodes(3, &spam), &cfg()).unwrap();
        for i in 0..3 {
            assert!((exact.relative[i] - 1.0).abs() < 1e-12);
            assert!((exact.absolute[i] - exact.pagerank[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn relative_mass_bounded_zero_one() {
        let f = figure2();
        let exact = ExactMass::compute(&f.graph, &f.partition(), &cfg()).unwrap();
        for &m in &exact.relative {
            assert!((0.0..=1.0 + 1e-12).contains(&m));
        }
    }

    #[test]
    fn rejects_mismatched_partition() {
        let g = GraphBuilder::from_edges(3, &[(0, 1)]);
        let err = ExactMass::compute(&g, &Partition::all_good(5), &cfg()).unwrap_err();
        assert!(matches!(err, EstimateError::LengthMismatch { got: 5, expected: 3 }), "{err:?}");
    }
}
