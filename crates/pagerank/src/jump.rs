//! Random-jump vector construction.
//!
//! The paper's method hinges on solving the same linear system under
//! different jump vectors:
//!
//! * the **uniform** vector `v = (1/n)ₙ` for the regular PageRank `p`;
//! * a **core-based** vector `v^{Ṽ⁺}` (entries `1/n` on the good core,
//!   zero elsewhere — Section 3.4), optionally **scaled** so its total mass
//!   is `γ ≈ |V⁺|/n` (Section 3.5, the `w` vector);
//! * **single-node** vectors `v^x` for PageRank contributions (Theorem 2).
//!
//! Jump vectors may be unnormalized (`0 < ‖v‖ ≤ 1`), which leaves the
//! PageRank vector unnormalized as well — this is intentional and required
//! by the mass-estimation algebra.
//!
//! The engine never holds a jump as a dense `n`-long vector unless it is
//! one: [`JumpVector::spec`] validates it into a [`JumpSpec`] — a constant
//! for the uniform jump, a value on a bitset for a core or a single node,
//! a dense vector only for a custom one. [`JumpVector::materialize`] is
//! that spec written out densely.

use crate::error::PageRankError;
use spammass_graph::NodeId;

/// A random-jump distribution over graph nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum JumpVector {
    /// Uniform `1/n` over all nodes — the regular PageRank jump.
    Uniform,
    /// Uniform over a node subset with a chosen **total** mass:
    /// entries are `total_mass / |nodes|` on the subset, zero elsewhere.
    ///
    /// * `total_mass = |nodes|/n` reproduces the plain `v^{Ṽ⁺}` of
    ///   Section 3.4 (use [`JumpVector::core`]).
    /// * `total_mass = γ` reproduces the scaled `w` of Section 3.5
    ///   (use [`JumpVector::scaled_core`]).
    Core {
        /// Nodes receiving jump probability.
        nodes: Vec<NodeId>,
        /// Total jump mass distributed over `nodes`.
        total_mass: f64,
    },
    /// All jump mass `v_x` on a single node — the `v^x` of Theorem 2.
    SingleNode {
        /// The node receiving the jump.
        node: NodeId,
        /// Its jump probability `v_x` (e.g. `1/n`).
        mass: f64,
    },
    /// Fully custom per-node jump probabilities.
    Custom(Vec<f64>),
}

impl JumpVector {
    /// Plain core-based vector `v^U`: `1/n` on each core node, zero
    /// elsewhere (Section 3.4). `n` is supplied at materialization, so the
    /// stored mass is per-node `1/n` semantics via `total_mass = |U|/n`.
    pub fn core(nodes: Vec<NodeId>, node_count: usize) -> Self {
        let mut unique = nodes;
        unique.sort_unstable();
        unique.dedup();
        let total = unique.len() as f64 / node_count as f64;
        JumpVector::Core { nodes: unique, total_mass: total }
    }

    /// γ-scaled core vector `w` (Section 3.5): uniform over the core with
    /// `‖w‖ = gamma`, where `gamma` estimates the good fraction of the web
    /// (the paper uses 0.85, i.e. "at least 15% of hosts are spam").
    pub fn scaled_core(nodes: Vec<NodeId>, gamma: f64) -> Self {
        JumpVector::Core { nodes, total_mass: gamma }
    }

    /// Materializes the jump vector as a dense `Vec<f64>` of length `n`.
    pub fn materialize(&self, n: usize) -> Result<Vec<f64>, PageRankError> {
        Ok(match self.spec(n)? {
            JumpSpec::Dense(values) => values,
            spec => spec.to_dense(n),
        })
    }

    /// The jump as the engine's sweep reads it, validated: every entry
    /// finite and non-negative, `0 < ‖v‖ ≤ 1` (with `1e-9` of slack) on a
    /// non-empty graph. [`materialize`](Self::materialize) is this spec
    /// written out densely.
    pub(crate) fn spec(&self, n: usize) -> Result<JumpSpec, PageRankError> {
        let spec = match self {
            JumpVector::Uniform => JumpSpec::Constant(if n == 0 { 0.0 } else { 1.0 / n as f64 }),
            JumpVector::Core { nodes, total_mass } => {
                if nodes.is_empty() {
                    return Err(PageRankError::InvalidJumpVector("empty core".into()));
                }
                // Deduplicate: splitting total_mass over a list with
                // duplicates and then overwriting entries would silently
                // shrink the materialized norm below `total_mass`.
                let mut unique = nodes.clone();
                unique.sort_unstable();
                unique.dedup();
                let value = total_mass / unique.len() as f64;
                JumpSpec::OnSet { value, bits: node_set(&unique, n, "core node")? }
            }
            JumpVector::SingleNode { node, mass } => {
                JumpSpec::OnSet { value: *mass, bits: node_set(&[*node], n, "node")? }
            }
            JumpVector::Custom(values) => {
                if values.len() != n {
                    return Err(PageRankError::JumpVectorLength { got: values.len(), expected: n });
                }
                JumpSpec::Dense(values.clone())
            }
        };
        validate_entries((0..n).map(|y| spec.at(y)))?;
        Ok(spec)
    }

    /// Heap bytes the [`spec`](Self::spec) of this jump holds on an
    /// `n`-node graph: none for the uniform jump, a bitset for a core or a
    /// single node, `8n` for a custom vector.
    pub(crate) fn spec_bytes(&self, n: usize) -> u64 {
        match self {
            JumpVector::Uniform => 0,
            JumpVector::Core { .. } | JumpVector::SingleNode { .. } => bitset_bytes(n) as u64,
            JumpVector::Custom(_) => n as u64 * 8,
        }
    }

    /// Total mass `‖v‖₁` the materialized vector will have.
    pub fn norm(&self, n: usize) -> f64 {
        match self {
            JumpVector::Uniform => {
                if n == 0 {
                    0.0
                } else {
                    1.0
                }
            }
            JumpVector::Core { total_mass, .. } => *total_mass,
            JumpVector::SingleNode { mass, .. } => *mass,
            JumpVector::Custom(values) => values.iter().sum(),
        }
    }
}

/// A validated jump in the form the engine's sweep reads it; see
/// [`JumpVector::spec`].
#[derive(Debug)]
pub(crate) enum JumpSpec {
    /// The same value on every node: the uniform jump's `1/n`.
    Constant(f64),
    /// `value` on the nodes whose bit is set, zero elsewhere: a core or a
    /// single node.
    OnSet {
        /// The per-node jump probability on the set.
        value: f64,
        /// Bit `y % 64` of word `y / 64` marks node `y`.
        bits: Vec<u64>,
    },
    /// One value per node: a custom jump.
    Dense(Vec<f64>),
}

impl JumpSpec {
    /// The jump probability of node `y`.
    #[inline(always)]
    pub(crate) fn at(&self, y: usize) -> f64 {
        match self {
            JumpSpec::Constant(value) => *value,
            JumpSpec::OnSet { value, bits } => {
                if bits[y / 64] >> (y % 64) & 1 == 1 {
                    *value
                } else {
                    0.0
                }
            }
            JumpSpec::Dense(values) => values[y],
        }
    }

    /// The jump written out as one value per node of an `n`-node graph.
    pub(crate) fn to_dense(&self, n: usize) -> Vec<f64> {
        (0..n).map(|y| self.at(y)).collect()
    }
}

/// Bytes of the bitset [`node_set`] allocates over `n` nodes.
const fn bitset_bytes(n: usize) -> usize {
    n.div_ceil(64) * 8
}

/// The bitset of `nodes` (ascending) over `n` nodes; the error names the
/// first node out of range.
fn node_set(nodes: &[NodeId], n: usize, what: &str) -> Result<Vec<u64>, PageRankError> {
    let mut bits = vec![0u64; bitset_bytes(n) / 8];
    for &x in nodes {
        if x.index() >= n {
            return Err(PageRankError::InvalidJumpVector(format!(
                "{what} {x} out of range for {n} nodes"
            )));
        }
        bits[x.index() / 64] |= 1 << (x.index() % 64);
    }
    Ok(bits)
}

/// Every entry finite and non-negative; on a non-empty vector, the entry
/// sum within `0 < ‖v‖ ≤ 1` (with `1e-9` of slack).
fn validate_entries(entries: impl Iterator<Item = f64>) -> Result<(), PageRankError> {
    let mut sum = 0.0;
    let mut empty = true;
    for x in entries {
        if !x.is_finite() || x < 0.0 {
            return Err(PageRankError::InvalidJumpVector(format!(
                "entry {x} is negative or non-finite"
            )));
        }
        sum += x;
        empty = false;
    }
    if empty {
        return Ok(());
    }
    if sum > 1.0 + 1e-9 {
        return Err(PageRankError::InvalidJumpVector(format!("norm {sum} exceeds 1")));
    }
    if sum <= 0.0 {
        return Err(PageRankError::InvalidJumpVector(
            "norm must be positive (0 < ||v|| <= 1)".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_materialization() {
        let v = JumpVector::Uniform.materialize(4).unwrap();
        assert_eq!(v, vec![0.25; 4]);
        assert!((JumpVector::Uniform.norm(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn core_vector_section_3_4() {
        // v^U: 1/n on core nodes.
        let j = JumpVector::core(vec![NodeId(0), NodeId(2)], 4);
        let v = j.materialize(4).unwrap();
        assert_eq!(v, vec![0.25, 0.0, 0.25, 0.0]);
        assert!((j.norm(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scaled_core_section_3_5() {
        // w: ‖w‖ = γ = 0.85 over 2 core nodes -> 0.425 each.
        let j = JumpVector::scaled_core(vec![NodeId(1), NodeId(3)], 0.85);
        let v = j.materialize(4).unwrap();
        assert!((v[1] - 0.425).abs() < 1e-12);
        assert!((v[3] - 0.425).abs() < 1e-12);
        assert_eq!(v[0], 0.0);
        assert!((j.norm(4) - 0.85).abs() < 1e-12);
    }

    #[test]
    fn single_node_vector() {
        let j = JumpVector::SingleNode { node: NodeId(2), mass: 0.25 };
        let v = j.materialize(4).unwrap();
        assert_eq!(v, vec![0.0, 0.0, 0.25, 0.0]);
    }

    #[test]
    fn custom_vector_checked() {
        let j = JumpVector::Custom(vec![0.5, 0.5]);
        assert!(j.materialize(2).is_ok());
        assert!(matches!(
            j.materialize(3),
            Err(PageRankError::JumpVectorLength { got: 2, expected: 3 })
        ));
    }

    #[test]
    fn rejects_bad_vectors() {
        assert!(JumpVector::Custom(vec![-0.1, 0.5]).materialize(2).is_err());
        assert!(JumpVector::Custom(vec![0.9, 0.9]).materialize(2).is_err());
        assert!(JumpVector::Custom(vec![f64::NAN, 0.0]).materialize(2).is_err());
        let empty_core = JumpVector::Core { nodes: vec![], total_mass: 0.5 };
        assert!(empty_core.materialize(2).is_err());
        let oob = JumpVector::core(vec![NodeId(9)], 10);
        assert!(oob.materialize(2).is_err());
        let oob_single = JumpVector::SingleNode { node: NodeId(9), mass: 0.1 };
        assert!(oob_single.materialize(2).is_err());
        assert!(JumpVector::scaled_core(vec![NodeId(1), NodeId(2)], 1.5).materialize(4).is_err());
        for mass in [-0.0, f64::NAN] {
            assert!(JumpVector::SingleNode { node: NodeId(0), mass }.materialize(3).is_err());
        }
    }

    #[test]
    fn spec_bytes_is_what_the_spec_holds() {
        let cases = [
            (JumpVector::Uniform, 7),
            (JumpVector::scaled_core(vec![NodeId(3), NodeId(1), NodeId(3)], 0.85), 130),
            (JumpVector::SingleNode { node: NodeId(63), mass: 1.0 }, 64),
            (JumpVector::Custom(vec![0.5, 0.25, 0.0]), 3),
        ];
        for (jump, n) in cases {
            let held = match jump.spec(n).unwrap() {
                JumpSpec::Constant(_) => 0,
                JumpSpec::OnSet { bits, .. } => bits.len() * 8,
                JumpSpec::Dense(values) => values.len() * 8,
            };
            assert_eq!(jump.spec_bytes(n), held as u64, "{jump:?} on {n}");
        }
    }

    #[test]
    fn empty_graph_edge_cases() {
        assert!(JumpVector::Uniform.materialize(0).unwrap().is_empty());
        assert_eq!(JumpVector::Uniform.norm(0), 0.0);
    }
}
