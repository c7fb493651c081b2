//! # spammass-serve
//!
//! A long-lived spam-mass query daemon over published state
//! generations.
//!
//! The batch pipeline (`estimate` → journal → `update`) publishes
//! immutable snapshot generations through the crash-safe
//! [`spammass_delta::StateDir`] manifest. This crate turns one of those
//! directories into an online service: it mmaps the `SPAMGRPH` graph
//! image and reads the `SPAMSCRS` score vectors of the current
//! generation into an immutable [`snapshot::Snapshot`], then answers
//! HTTP/JSON queries — single score lookups, batched lookups, top-k
//! spam mass, and a per-node explanation of which in-neighbors carry
//! the core PageRank `p′` — from it.
//!
//! ## Snapshot lifecycle and the epoch swap
//!
//! Readers never lock anything for longer than one pointer clone: the
//! current snapshot lives in an `Arc` slot, every request clones the
//! `Arc` once and answers entirely from that clone, so a response can
//! never mix scores from two generations. A background reload pass
//! (periodic, and on demand via `GET /reload`) watches for two kinds of
//! staleness:
//!
//! * a **newer published generation** (another process ran
//!   `spammass update`) — load it and swap;
//! * **fresh journal records** past what the daemon already consumed —
//!   run the warm [`spammass_core::estimate::MassEstimator::update`]
//!   path in-process, publish the result through the crash-safe
//!   `StateDir::save`, and swap to the generation it produced.
//!
//! The swap itself is a single `Arc` store; in-flight requests keep
//! their old snapshot alive until they finish, then the last clone
//! drops and (for mmapped graphs) the mapping unmaps.
//!
//! The HTTP plumbing is the shared zero-dependency
//! [`spammass_obs::http`] server, one thread per keep-alive connection;
//! [`server::Server`] is the daemon's route table on it.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod reload;
pub mod server;
pub mod service;
pub mod snapshot;

pub use reload::Reloader;
pub use server::{serving_addr, ServeOptions, Server};
pub use snapshot::Snapshot;

use spammass_core::estimate::EstimateError;
use spammass_delta::StateError;
use spammass_graph::GraphError;
use std::fmt;

/// Typed failures of the serving plane.
#[derive(Debug)]
pub enum ServeError {
    /// The state directory (manifest or generation payload) failed to
    /// load.
    State(StateError),
    /// A graph or journal image failed to decode.
    Graph(GraphError),
    /// The in-process warm re-estimation failed.
    Estimate(EstimateError),
    /// A socket or filesystem failure.
    Io(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::State(e) => write!(f, "state: {e}"),
            ServeError::Graph(e) => write!(f, "graph: {e}"),
            ServeError::Estimate(e) => write!(f, "estimate: {e}"),
            ServeError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::State(e) => Some(e),
            ServeError::Graph(e) => Some(e),
            ServeError::Estimate(e) => Some(e),
            ServeError::Io(e) => Some(e),
        }
    }
}

impl From<StateError> for ServeError {
    fn from(e: StateError) -> Self {
        match e {
            StateError::Io(io) => ServeError::Io(io),
            other => ServeError::State(other),
        }
    }
}

impl From<GraphError> for ServeError {
    fn from(e: GraphError) -> Self {
        match e {
            GraphError::Io(io) => ServeError::Io(io),
            other => ServeError::Graph(other),
        }
    }
}

impl From<EstimateError> for ServeError {
    fn from(e: EstimateError) -> Self {
        ServeError::Estimate(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
