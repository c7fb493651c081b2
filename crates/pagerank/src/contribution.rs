//! PageRank contributions (Section 3.2, Theorems 1–2).
//!
//! The PageRank contribution of `x` to `y` over a walk `W` is
//! `q_y^W = c^{|W|}·π(W)·(1−c)·v_x`, where `π(W) = Π 1/out(x_i)` is the
//! walk weight; the total contribution `q_y^x` sums over all walks
//! `W ∈ W_{xy}`, plus the virtual zero-length circuit for `x = y`
//! (so `q_x^x ≥ (1−c)·v_x`).
//!
//! **Theorem 1**: `p_y = Σ_x q_y^x`.
//! **Theorem 2**: `q^x = PR(v^x)` — the contribution vector of `x` is the
//! PageRank vector under the core-based jump vector concentrated on `x`.
//! By linearity, `q^U = PR(v^U)` for any node set `U`.
//!
//! This module provides:
//!
//! * [`contribution_of_node`] / [`contribution_of_set`] — the efficient
//!   Theorem-2 route used by spam-mass estimation, and
//! * [`walk_sum_truncated`] / [`enumerate_walk_contributions`] — reference
//!   evaluators that compute `q` directly from the walk definition, used by
//!   the test-suite to validate the theorems numerically.

use crate::chain::{solve_columns, ChainError};
use crate::config::PageRankConfig;
use crate::jump::JumpVector;
use spammass_graph::{Graph, NodeId};

/// One column through the production solve.
fn solve_one(
    graph: &Graph,
    jump: JumpVector,
    config: &PageRankConfig,
) -> Result<Vec<f64>, ChainError> {
    let mut solve = solve_columns(graph, &[jump], None, config)?;
    Ok(solve.columns.pop().expect("one jump vector yields one column").scores)
}

/// Contribution vector `q^x = PR(v^x)` of node `x` to every node
/// (Theorem 2). `v_x` is the jump probability of `x` under the reference
/// jump vector — `1/n` in the uniform setting.
///
/// # Errors
/// Jump-vector validation failures (e.g. `x` out of range, bad `v_x`) and
/// solver convergence errors, as [`solve_columns`] reports them.
pub fn contribution_of_node(
    graph: &Graph,
    x: NodeId,
    v_x: f64,
    config: &PageRankConfig,
) -> Result<Vec<f64>, ChainError> {
    solve_one(graph, JumpVector::SingleNode { node: x, mass: v_x }, config)
}

/// Contribution vector `q^U = PR(v^U)` of a node set `U`, where each
/// member keeps its reference jump probability `v_y` (uniform `1/n` here).
///
/// # Errors
/// Same contract as [`contribution_of_node`].
pub fn contribution_of_set(
    graph: &Graph,
    set: &[NodeId],
    config: &PageRankConfig,
) -> Result<Vec<f64>, ChainError> {
    solve_one(graph, JumpVector::core(set.to_vec(), graph.node_count()), config)
}

/// Reference evaluator: computes `q^x` by dynamic programming over walk
/// lengths, truncated at `max_len` edges.
///
/// `w_k[y]` accumulates `Σ_{W ∈ W_{xy}, |W| = k} π(W)`, and
/// `q_y = Σ_k c^k·w_k[y]·(1−c)·v_x` (the `k = 0` term is the virtual
/// circuit `Z_x`). Truncation error is bounded by `c^{max_len}`; with
/// `c = 0.85` and `max_len = 300` it is ~4e-22.
pub fn walk_sum_truncated(
    graph: &Graph,
    x: NodeId,
    v_x: f64,
    damping: f64,
    max_len: usize,
) -> Vec<f64> {
    let n = graph.node_count();
    let mut q = vec![0.0f64; n];
    let mut w = vec![0.0f64; n];
    let mut w_next = vec![0.0f64; n];
    w[x.index()] = 1.0; // the empty walk / virtual circuit Z_x

    let base = (1.0 - damping) * v_x;
    let mut c_pow = 1.0f64;
    for _ in 0..=max_len {
        for (slot, &wk) in q.iter_mut().zip(&w) {
            *slot += c_pow * wk * base;
        }
        // advance: w_{k+1}[y] = Σ_{z→y} w_k[z]/out(z)
        w_next.iter_mut().for_each(|s| *s = 0.0);
        for z in graph.nodes() {
            let nbrs = graph.out_neighbors(z);
            if nbrs.is_empty() || w[z.index()] == 0.0 {
                continue;
            }
            let share = w[z.index()] / nbrs.len() as f64;
            for &y in nbrs {
                w_next[y.index()] += share;
            }
        }
        std::mem::swap(&mut w, &mut w_next);
        c_pow *= damping;
    }
    q
}

/// A single walk and its contribution, from the literal definition.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkContribution {
    /// The node sequence `x = x₀, …, x_k = y`.
    pub walk: Vec<NodeId>,
    /// `q_y^W = c^k · π(W) · (1−c) · v_x`.
    pub value: f64,
}

/// Literal walk enumeration from `x`, for **tiny** graphs only: returns
/// every walk of length `1..=max_len` starting at `x` together with its
/// contribution, plus the virtual zero-length circuit.
///
/// Exponential in `max_len`; intended for validating [`walk_sum_truncated`]
/// on hand-built graphs in tests.
pub fn enumerate_walk_contributions(
    graph: &Graph,
    x: NodeId,
    v_x: f64,
    damping: f64,
    max_len: usize,
) -> Vec<WalkContribution> {
    let base = (1.0 - damping) * v_x;
    let mut out = vec![WalkContribution { walk: vec![x], value: base }];
    // DFS over walk prefixes.
    let mut stack: Vec<(Vec<NodeId>, f64)> = vec![(vec![x], 1.0)];
    while let Some((prefix, weight)) = stack.pop() {
        if prefix.len() > max_len {
            continue;
        }
        let last = *prefix.last().expect("non-empty prefix");
        let nbrs = graph.out_neighbors(last);
        if nbrs.is_empty() {
            continue;
        }
        let step = weight / nbrs.len() as f64;
        for &y in nbrs {
            let mut walk = prefix.clone();
            walk.push(y);
            let k = walk.len() - 1;
            out.push(WalkContribution {
                walk: walk.clone(),
                value: damping.powi(k as i32) * step * base,
            });
            if k < max_len {
                stack.push((walk, step));
            }
        }
    }
    out
}

/// Sums enumerated walk contributions into a per-target vector — the
/// definitional `q^x`, truncated at `max_len`.
pub fn walk_contribution_vector(
    graph: &Graph,
    x: NodeId,
    v_x: f64,
    damping: f64,
    max_len: usize,
) -> Vec<f64> {
    let mut q = vec![0.0f64; graph.node_count()];
    for wc in enumerate_walk_contributions(graph, x, v_x, damping, max_len) {
        let y = *wc.walk.last().expect("non-empty walk");
        q[y.index()] += wc.value;
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use spammass_graph::GraphBuilder;

    fn cfg() -> PageRankConfig {
        PageRankConfig::default().tolerance(1e-14).max_iterations(5_000)
    }

    #[test]
    fn self_contribution_without_circuits() {
        // x not on any circuit: q_x^x = (1−c)·v_x.
        let g = GraphBuilder::from_edges(2, &[(0, 1)]);
        let q = contribution_of_node(&g, NodeId(0), 0.5, &cfg()).unwrap();
        assert!((q[0] - 0.15 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn unconnected_contribution_is_zero() {
        let g = GraphBuilder::from_edges(3, &[(0, 1)]);
        let q = contribution_of_node(&g, NodeId(0), 1.0 / 3.0, &cfg()).unwrap();
        assert_eq!(q[2], 0.0);
    }

    #[test]
    fn out_of_range_node_is_an_error() {
        let g = GraphBuilder::from_edges(2, &[(0, 1)]);
        assert!(contribution_of_node(&g, NodeId(7), 0.5, &cfg()).is_err());
    }

    #[test]
    fn theorem1_contributions_sum_to_pagerank() {
        // p_y = Σ_x q_y^x on a cyclic graph with dangling nodes.
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (1, 4)]);
        let n = g.node_count();
        let config = cfg();
        let p = solve_one(&g, JumpVector::Uniform, &config).unwrap();
        let mut sum = vec![0.0f64; n];
        for x in g.nodes() {
            let q = contribution_of_node(&g, x, 1.0 / n as f64, &config).unwrap();
            for (s, qy) in sum.iter_mut().zip(&q) {
                *s += qy;
            }
        }
        for y in 0..n {
            assert!((p[y] - sum[y]).abs() < 1e-10, "node {y}: p {} vs Σq {}", p[y], sum[y]);
        }
    }

    #[test]
    fn theorem2_set_contribution_is_sum_of_nodes() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let config = cfg();
        let set = [NodeId(0), NodeId(2)];
        let q_set = contribution_of_set(&g, &set, &config).unwrap();
        let q0 = contribution_of_node(&g, NodeId(0), 0.25, &config).unwrap();
        let q2 = contribution_of_node(&g, NodeId(2), 0.25, &config).unwrap();
        for i in 0..4 {
            assert!((q_set[i] - (q0[i] + q2[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn walk_sum_matches_linear_solver() {
        // The DP walk-sum and Theorem 2 route agree on a cyclic graph.
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)]);
        let config = cfg();
        let q_pr = contribution_of_node(&g, NodeId(0), 0.25, &config).unwrap();
        let q_ws = walk_sum_truncated(&g, NodeId(0), 0.25, config.damping, 400);
        for i in 0..4 {
            assert!(
                (q_pr[i] - q_ws[i]).abs() < 1e-10,
                "node {i}: PR {} vs walk-sum {}",
                q_pr[i],
                q_ws[i]
            );
        }
    }

    #[test]
    fn literal_enumeration_matches_dp_on_dag() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let dp = walk_sum_truncated(&g, NodeId(0), 0.25, 0.85, 10);
        let lit = walk_contribution_vector(&g, NodeId(0), 0.25, 0.85, 10);
        for i in 0..4 {
            assert!((dp[i] - lit[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn literal_enumeration_matches_dp_on_cycle() {
        // Finite truncation of an infinite walk family.
        let g = GraphBuilder::from_edges(2, &[(0, 1), (1, 0)]);
        let dp = walk_sum_truncated(&g, NodeId(0), 0.5, 0.85, 15);
        let lit = walk_contribution_vector(&g, NodeId(0), 0.5, 0.85, 15);
        for i in 0..2 {
            assert!((dp[i] - lit[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn enumeration_includes_virtual_circuit() {
        let g = GraphBuilder::from_edges(2, &[(0, 1)]);
        let walks = enumerate_walk_contributions(&g, NodeId(0), 1.0, 0.85, 5);
        // Walks: [0] (virtual) and [0,1].
        assert_eq!(walks.len(), 2);
        assert_eq!(walks[0].walk, vec![NodeId(0)]);
        assert!((walks[0].value - 0.15).abs() < 1e-12);
        assert!((walks[1].value - 0.85 * 0.15).abs() < 1e-12);
    }

    #[test]
    fn walk_weight_splits_over_out_degree() {
        // x -> {a, b}: each length-1 walk has π = 1/2.
        let g = GraphBuilder::from_edges(3, &[(0, 1), (0, 2)]);
        let walks = enumerate_walk_contributions(&g, NodeId(0), 1.0, 0.85, 1);
        let w1: Vec<_> = walks.iter().filter(|w| w.walk.len() == 2).collect();
        assert_eq!(w1.len(), 2);
        for w in w1 {
            assert!((w.value - 0.85 * 0.5 * 0.15).abs() < 1e-12);
        }
    }
}
