//! The two naive labelling schemes of Section 3.1, kept as baselines.
//!
//! Both schemes look only at a node's **immediate** in-neighbours and are
//! shown by the paper to fail:
//!
//! * **Scheme 1** labels `x` spam iff the majority of its in-links come
//!   from spam nodes. It mislabels the Figure 1 farm (two good links
//!   outvote one heavily-boosted spam link).
//! * **Scheme 2** weighs each in-link by its PageRank contribution — the
//!   change in `p_x` caused by removing the link. It fixes Figure 1 but
//!   mislabels Figure 2, where spam boosts `x` *indirectly* through good
//!   nodes.
//!
//! Spam mass (Section 3.3) is the scheme that finally accounts for all
//! direct and indirect contributions.

use crate::estimate::{solve_one, EstimateError};
use crate::partition::{NodeSide, Partition};
use spammass_graph::{Graph, NodeId};
use spammass_pagerank::{JumpVector, PageRankConfig};

/// Regular PageRank `p = PR(v)` under the uniform jump.
fn solve_uniform(graph: &Graph, config: &PageRankConfig) -> Result<Vec<f64>, EstimateError> {
    solve_one(graph, JumpVector::Uniform, config, "pagerank")
}

/// Scheme 1: majority vote over in-link sources.
///
/// Returns [`NodeSide::Spam`] iff strictly more than half of `x`'s
/// in-links originate from spam nodes (ties and zero in-degree are good).
pub fn scheme1_label(graph: &Graph, partition: &Partition, x: NodeId) -> NodeSide {
    let inlinks = graph.in_neighbors(x);
    if inlinks.is_empty() {
        return NodeSide::Good;
    }
    let spam = inlinks.iter().filter(|&&y| partition.is_spam(y)).count();
    if 2 * spam > inlinks.len() {
        NodeSide::Spam
    } else {
        NodeSide::Good
    }
}

/// The PageRank contribution of a single link `(y, x)`, defined by the
/// paper as "the change in PageRank induced by the removal of the link".
///
/// Computed **exactly**: PageRank is solved on the graph with and without
/// the edge. Quadratic in practice — use only on modest graphs (the
/// evaluation harness uses it on the paper's toy graphs; at web scale,
/// scheme 2 is hopeless anyway, which is the paper's point).
///
/// # Errors
/// [`EstimateError::Solver`] when either PageRank run fails.
///
/// # Panics
/// Panics when the link `(y, x)` is not present — a caller-contract
/// violation, not a data condition.
pub fn link_contribution_exact(
    graph: &Graph,
    y: NodeId,
    x: NodeId,
    config: &PageRankConfig,
) -> Result<f64, EstimateError> {
    assert!(graph.has_edge(y, x), "link ({y}, {x}) not present");
    let with_edge = solve_uniform(graph, config)?[x.index()];
    let without = graph.filter_edges(|f, t| !(f == y && t == x));
    let without_edge = solve_uniform(&without, config)?[x.index()];
    Ok(with_edge - without_edge)
}

/// First-order approximation of a link's contribution: `c·p_y/out(y)` —
/// the score that flows over the link in one step. Exact whenever removing
/// the link does not change `p_y` (i.e. no cycle back from `x` to `y`),
/// which holds in both of the paper's examples.
pub fn link_contribution_fast(
    graph: &Graph,
    pagerank: &[f64],
    damping: f64,
    y: NodeId,
    x: NodeId,
) -> f64 {
    debug_assert!(graph.has_edge(y, x), "link ({y}, {x}) not present");
    damping * pagerank[y.index()] / graph.out_degree(y) as f64
}

/// Scheme 2: contribution-weighted vote.
///
/// Labels `x` spam iff the summed link contributions of spam in-neighbours
/// exceed those of good in-neighbours. `exact` selects the
/// removal-definition ([`link_contribution_exact`]) versus the fast
/// approximation.
///
/// # Errors
/// [`EstimateError::Solver`] when an underlying PageRank run fails.
pub fn scheme2_label(
    graph: &Graph,
    partition: &Partition,
    x: NodeId,
    config: &PageRankConfig,
    exact: bool,
) -> Result<NodeSide, EstimateError> {
    let inlinks = graph.in_neighbors(x);
    if inlinks.is_empty() {
        return Ok(NodeSide::Good);
    }
    let pagerank = if exact { Vec::new() } else { solve_uniform(graph, config)? };
    let mut spam_contrib = 0.0f64;
    let mut good_contrib = 0.0f64;
    for &y in inlinks {
        let c = if exact {
            link_contribution_exact(graph, y, x, config)?
        } else {
            link_contribution_fast(graph, &pagerank, config.damping, y, x)
        };
        if partition.is_spam(y) {
            spam_contrib += c;
        } else {
            good_contrib += c;
        }
    }
    Ok(if spam_contrib > good_contrib { NodeSide::Spam } else { NodeSide::Good })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::{figure1, figure2};

    fn cfg() -> PageRankConfig {
        PageRankConfig::default().tolerance(1e-14).max_iterations(10_000)
    }

    #[test]
    fn scheme1_fails_on_figure1() {
        // Two good links outvote one spam link, even though spam dominates
        // x's PageRank for k ≥ 2 — the paper's first failure case.
        let f = figure1(5);
        let label = scheme1_label(&f.graph, &f.partition_x_good(), f.x);
        assert_eq!(label, NodeSide::Good, "scheme 1 mislabels the Figure 1 target");
    }

    #[test]
    fn scheme2_succeeds_on_figure1() {
        let f = figure1(5);
        let label = scheme2_label(&f.graph, &f.partition_x_good(), f.x, &cfg(), true).unwrap();
        assert_eq!(label, NodeSide::Spam, "scheme 2 catches the Figure 1 target");
    }

    #[test]
    fn scheme2_fast_matches_exact_on_figure1() {
        let f = figure1(5);
        let exact = scheme2_label(&f.graph, &f.partition_x_good(), f.x, &cfg(), true).unwrap();
        let fast = scheme2_label(&f.graph, &f.partition_x_good(), f.x, &cfg(), false).unwrap();
        assert_eq!(exact, fast);
    }

    #[test]
    fn scheme2_fails_on_figure2() {
        // g0 and g2 together contribute (2c + 4c²) > s0's (c + 4c²), so
        // scheme 2 calls x good — the paper's second failure case.
        let f = figure2();
        let mut partition = f.partition();
        partition.set(f.x, NodeSide::Good); // judging x, assume good
        let label = scheme2_label(&f.graph, &partition, f.x, &cfg(), true).unwrap();
        assert_eq!(label, NodeSide::Good, "scheme 2 mislabels the Figure 2 target");
    }

    #[test]
    fn figure1_link_contributions_match_closed_forms() {
        // Links from g0, g1 contribute c(1−c)/n; from s0: (c + kc²)(1−c)/n.
        let k = 5;
        let f = figure1(k);
        let c = 0.85f64;
        let n = f.graph.node_count() as f64;
        let config = cfg();
        let g_contrib = link_contribution_exact(&f.graph, f.good[0], f.x, &config).unwrap();
        assert!((g_contrib - c * (1.0 - c) / n).abs() < 1e-12);
        let s_contrib = link_contribution_exact(&f.graph, f.s0, f.x, &config).unwrap();
        let expected = (c + k as f64 * c * c) * (1.0 - c) / n;
        assert!((s_contrib - expected).abs() < 1e-12);
    }

    #[test]
    fn figure2_link_contributions_match_closed_forms() {
        // Section 3.1: g0 and g2 links contribute (2c + 4c²)(1−c)/n
        // together; the s0 link contributes (c + 4c²)(1−c)/n.
        let f = figure2();
        let c = 0.85f64;
        let n = 12.0;
        let config = cfg();
        let g_total = link_contribution_exact(&f.graph, f.g[0], f.x, &config).unwrap()
            + link_contribution_exact(&f.graph, f.g[2], f.x, &config).unwrap();
        assert!((g_total - (2.0 * c + 4.0 * c * c) * (1.0 - c) / n).abs() < 1e-12);
        let s_contrib = link_contribution_exact(&f.graph, f.s[0], f.x, &config).unwrap();
        assert!((s_contrib - (c + 4.0 * c * c) * (1.0 - c) / n).abs() < 1e-12);
    }

    #[test]
    fn fast_contribution_is_exact_on_both_paper_figures() {
        // Neither figure has a path from x back to an in-neighbour, so the
        // one-step flow c·p_y/out(y) is the whole contribution.
        let config = cfg();
        let f1 = figure1(5);
        let f2 = figure2();
        for (graph, x) in [(&f1.graph, f1.x), (&f2.graph, f2.x)] {
            let p = solve_uniform(graph, &config).unwrap();
            for &y in graph.in_neighbors(x) {
                let exact = link_contribution_exact(graph, y, x, &config).unwrap();
                let fast = link_contribution_fast(graph, &p, config.damping, y, x);
                assert!((exact - fast).abs() < 1e-12, "link ({y}, {x}): {exact} vs {fast}");
            }
        }
    }

    #[test]
    fn zero_indegree_is_good_under_both_schemes() {
        let f = figure2();
        let p = f.partition();
        assert_eq!(scheme1_label(&f.graph, &p, f.g[1]), NodeSide::Good);
        assert_eq!(scheme2_label(&f.graph, &p, f.g[1], &cfg(), false).unwrap(), NodeSide::Good);
    }

    #[test]
    fn scheme1_tie_is_good() {
        // x with one good and one spam in-link: tie -> good.
        use spammass_graph::GraphBuilder;
        let g = GraphBuilder::from_edges(3, &[(1, 0), (2, 0)]);
        let p = Partition::from_spam_nodes(3, &[NodeId(2)]);
        assert_eq!(scheme1_label(&g, &p, NodeId(0)), NodeSide::Good);
    }
}
