//! # spammass-core
//!
//! The primary contribution of Gyöngyi, Berkhin, Garcia-Molina & Pedersen,
//! *Link Spam Detection Based on Mass Estimation* (VLDB 2006): **spam
//! mass** — the amount of PageRank a node receives from spam nodes — and a
//! practical detection algorithm built on estimating it.
//!
//! ## Concepts (Section 3)
//!
//! Given a partition of the web into good nodes `V⁺` and spam nodes `V⁻`,
//! every node's PageRank splits as `p_x = q_x^{V⁺} + q_x^{V⁻}` (Theorem 1 +
//! linearity). Then:
//!
//! * **absolute spam mass** `M_x = q_x^{V⁻}` ([`mass`], Definition 1);
//! * **relative spam mass** `m_x = M_x / p_x` (Definition 2);
//! * **estimated mass** from a good core `Ṽ⁺` only ([`estimate`],
//!   Definition 3): `M̃ = p − p′`, `m̃ = 1 − p′_x/p_x`, with
//!   `p′ = PR(w)` and `w` the γ-scaled core jump vector of Section 3.5;
//! * **Algorithm 2** ([`detector`]): flag `x` when `p̂_x ≥ ρ` (scaled) and
//!   `m̃_x ≥ τ`.
//!
//! ## Baselines
//!
//! * [`naive`] — the two in-neighbour labelling schemes of Section 3.1
//!   (link counting and per-link PageRank contribution), shown by the
//!   paper to mislabel the Figure 1 / Figure 2 farms;
//! * [`trustrank`] — TrustRank \[Gyöngyi et al., VLDB 2004\], the
//!   *demotion* method the paper positions itself against (Section 5).
//!
//! ## Example
//!
//! Estimation is fallible: it returns an [`estimate::EstimateReport`]
//! carrying the mass estimate plus health diagnostics (a solve that
//! needed its second attempt, anomalous nodes, dead core entries), or a typed
//! [`estimate::EstimateError`].
//!
//! ```
//! use spammass_core::examples_paper::figure2;
//! use spammass_core::estimate::{MassEstimator, EstimatorConfig};
//! use spammass_core::detector::{DetectorConfig, detect};
//!
//! let fig2 = figure2();
//! let est = MassEstimator::new(EstimatorConfig::unscaled())
//!     .estimate(&fig2.graph, &fig2.good_core())
//!     .expect("the 12-node example converges");
//! assert!(est.is_healthy());
//! let found = detect(&est, &DetectorConfig { rho: 1.5, tau: 0.5 });
//! // The paper's run flags x, s0 and (false positive) g2.
//! assert_eq!(found.candidates.len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod baselines;
pub mod core_builder;
pub mod detector;
pub mod estimate;
pub mod examples_paper;
pub mod mass;
pub mod naive;
mod partition;
pub mod refinement;
pub mod topk;
pub mod trustrank;
pub mod update;

pub use core_builder::GoodCore;
pub use partition::{NodeSide, Partition};
pub use topk::{top_k_by, top_k_scores};
pub use update::{MassShift, UpdateReport};
