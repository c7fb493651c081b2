//! # spammass-graph
//!
//! Compact directed-graph substrate for host-level web graphs, built for the
//! spam-mass reproduction of Gyöngyi et al., *Link Spam Detection Based on
//! Mass Estimation* (VLDB 2006).
//!
//! The paper models the web as an unweighted directed graph `G = (V, E)`
//! without self-links, where nodes are pages, hosts, or sites (Section 2.1).
//! This crate provides:
//!
//! * [`NodeId`] — a 4-byte node identifier newtype.
//! * [`GraphBuilder`] / [`Graph`] — an edge-list builder producing an
//!   immutable graph stored in compressed sparse row (CSR) form for **both**
//!   orientations: PageRank sweeps out-edges, while spam analysis walks
//!   in-edges.
//! * [`NodeLabels`] — optional host names with TLD / registrable-domain
//!   helpers, used to assemble good cores the way Section 4.2 does
//!   (directory + `.gov` + `.edu` hosts).
//! * [`stats::GraphStats`] — the structural statistics reported in
//!   Section 4.1 (no-inlink / no-outlink / isolated fractions, degree
//!   distributions).
//! * [`powerlaw`] — discrete power-law fitting (Hill / MLE estimator) and
//!   log-binned histograms for Figure 6.
//! * [`io`] — text edge-list and binary round-trip formats.
//!
//! ## Quick example
//!
//! ```
//! use spammass_graph::{GraphBuilder, NodeId};
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(NodeId(0), NodeId(1));
//! b.add_edge(NodeId(1), NodeId(2));
//! let g = b.build();
//! assert_eq!(g.node_count(), 3);
//! assert_eq!(g.out_degree(NodeId(0)), 1);
//! assert_eq!(g.in_neighbors(NodeId(2)), &[NodeId(1)]);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod builder;
pub mod compress;
pub mod crc32;
mod error;
mod graph;
pub mod io;
mod labels;
pub mod le;
mod mmap;
mod node;
pub mod order;
pub mod powerlaw;
pub mod retry;
pub mod stats;
pub mod storage;
pub mod varint;

/// A fresh scratch directory for one test. `test` must be unique among
/// the crate's tests (use the test's name): tests run on parallel
/// threads, so two sharing a directory race on its files.
#[cfg(test)]
pub(crate) fn test_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spammass-graph-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test scratch directory");
    dir
}

pub use builder::GraphBuilder;
pub use compress::{
    graph_to_bytes_v4, graph_to_bytes_v4_with, BlockScratch, CompressedImage, Orientation,
    V4Config, V4Summary, V4Writer,
};
pub use error::GraphError;
pub use graph::Graph;
pub use labels::{HostName, NodeLabels};
#[cfg(unix)]
pub use mmap::MappedFile;
pub use node::NodeId;
pub use order::{NodeOrdering, Permutation};
pub use storage::{AlignedBytes, ByteStore, NodeStore, U32Store};
