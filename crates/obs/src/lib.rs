//! # spammass-obs
//!
//! Zero-dependency telemetry for the spam-mass pipeline: hierarchical
//! timed spans, typed metrics, machine-readable run reports, and a live
//! plane of windowed metrics and a flight ring served over HTTP.
//!
//! ## Design
//!
//! Instrumented code calls the facade unconditionally: [`span`],
//! [`counter`], [`gauge`], [`observe`], [`event`] and [`failpoint`].
//! Each call becomes one [`Event`] on one path, the crate's private
//! dispatch, which is the only code that decides who hears it:
//!
//! * the thread's [`Collector`], if one is installed
//!   ([`Collector::install`]): it adds the event to its metric totals and
//!   appends it to its log, from which the CLI renders `--trace` and
//!   builds the [`RunReport`];
//! * while the live plane is on ([`enable_live`]), the process-global
//!   windowed [`registry`] (counters, gauges, samples) and the
//!   [`flight`] ring (span open/close, messages, failpoint trips), both
//!   served by [`MetricsServer`].
//!
//! With neither, a facade call costs one thread-local read and one
//! relaxed atomic load, builds no event and allocates nothing, which
//! keeps hot paths clean and default CLI output byte-stable.
//! Thread-scoping the collector (rather than a global like the `log`
//! crate) gives parallel test runs isolation for free.
//!
//! ## Example
//!
//! ```
//! use spammass_obs::{Collector, RunReport};
//!
//! let collector = Collector::builder().build();
//! {
//!     let _guard = collector.install();
//!     let mut stage = spammass_obs::span("ingest");
//!     stage.record("lines", 128.0);
//!     spammass_obs::counter("graph.ingest.edges", 640.0);
//!     spammass_obs::observe("pagerank.residual", 3.2e-11);
//! }
//! let report = RunReport::build("demo", &collector);
//! assert_eq!(report.stages[0].record.name, "ingest");
//! ```
//!
//! Naming convention: dotted lowercase paths, `crate.stage.detail` —
//! e.g. `graph.ingest.lines`, `pagerank.solve.jacobi`,
//! `estimate.relative_mass`. See DESIGN.md §8 for the full taxonomy.
//! Names external tooling depends on (the durability counters) are
//! registered as constants in [`names`].

#![warn(missing_docs)]
#![warn(clippy::all)]

mod collector;
mod event;
pub mod export;
pub mod flight;
pub mod http;
pub mod json;
pub mod metrics;
pub mod names;
pub mod registry;
pub mod report;
mod span;
mod window;

pub use collector::{is_enabled, Collector, CollectorBuilder, ScopeGuard};
pub use event::Event;
pub use export::MetricsServer;
pub use json::Json;
pub use metrics::{Histogram, Metric};
pub use registry::MetricSnapshot;
pub use report::RunReport;
pub use span::{span, Span, SpanNode};

use std::sync::atomic::{AtomicBool, Ordering};

static LIVE: AtomicBool = AtomicBool::new(false);

/// Turns the live plane on: from here on every event also reaches the
/// global [`registry`] and the [`flight`] ring, from any thread, with or
/// without a collector. Irreversible for the life of the process (the
/// exposition server and crash dumps rely on it staying on).
pub fn enable_live() {
    LIVE.store(true, Ordering::Release);
}

/// Whether the live plane is on.
pub fn is_live() -> bool {
    LIVE.load(Ordering::Relaxed)
}

/// Whether an event would reach anyone: `collector` (the thread's, or a
/// span's) or the live plane.
fn anyone_listening(collector: Option<&Collector>) -> bool {
    collector.is_some() || is_live()
}

/// The one event path. Builds the event only if someone listens, hands
/// it to the live registry and flight ring when the plane is on (each
/// takes what is its kind), then to `collector`, which keeps it.
fn dispatch(collector: Option<&Collector>, event: impl FnOnce() -> Event) {
    if !anyone_listening(collector) {
        return;
    }
    let event = event();
    if is_live() {
        registry::global().record(&event);
        flight::global().record(&event);
    }
    if let Some(collector) = collector {
        collector.record(event);
    }
}

/// Adds `delta` to the counter `name` and emits an [`Event::Counter`]
/// carrying the collector's running total.
pub fn counter(name: &str, delta: f64) {
    dispatch(collector::current().as_ref(), || {
        // The collector fills in its running total.
        Event::Counter { name: name.to_string(), delta, total: f64::NAN }
    });
}

/// Sets the gauge `name` and emits an [`Event::Gauge`].
pub fn gauge(name: &str, value: f64) {
    dispatch(collector::current().as_ref(), || Event::Gauge { name: name.to_string(), value });
}

/// Records `value` into the histogram `name` and emits an
/// [`Event::Observe`].
pub fn observe(name: &str, value: f64) {
    dispatch(collector::current().as_ref(), || Event::Observe { name: name.to_string(), value });
}

/// Emits a structured one-off [`Event::Message`]. Use for rare, rich
/// events like solver-chain attempts; use metrics for anything
/// aggregate.
pub fn event(name: &str, fields: Vec<(String, Json)>) {
    dispatch(collector::current().as_ref(), || Event::Message { name: name.to_string(), fields });
}

/// Emits an [`Event::Failpoint`]: the armed failpoint `name` tripped
/// and injects `action` (`error` or `panic`).
pub fn failpoint(name: &str, action: &'static str) {
    dispatch(collector::current().as_ref(), || Event::Failpoint { name: name.to_string(), action });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_is_noop_without_collector() {
        // Must not panic or allocate state anywhere observable.
        counter("a", 1.0);
        gauge("b", 1.0);
        observe("c", 1.0);
        event("d", vec![]);
        failpoint("e", "error");
        assert!(!is_enabled());
        assert!(!is_live());
    }

    #[test]
    fn facade_routes_to_installed_collector() {
        let collector = Collector::builder().build();
        {
            let _g = collector.install();
            counter("hits", 2.0);
            counter("hits", 3.0);
            gauge("ratio", 0.5);
            observe("residual", 1e-8);
            event("attempt", vec![("n".to_string(), Json::uint(1))]);
            failpoint("state.manifest.rename", "error");
        }
        let metrics = collector.metrics_snapshot();
        assert_eq!(metrics.len(), 3);
        assert_eq!(metrics[0], ("hits".to_string(), Metric::Counter(5.0)));
        assert_eq!(metrics[1], ("ratio".to_string(), Metric::Gauge(0.5)));
        match &metrics[2].1 {
            Metric::Histogram(h) => assert_eq!(h.count(), 1),
            other => panic!("expected histogram, got {}", other.kind()),
        }
        // 6 events: 2 counters, 1 gauge, 1 observe, 1 message, 1 trip;
        // each counter event carries the running total.
        let events = collector.events();
        assert_eq!(events.len(), 6);
        assert!(matches!(events[1], Event::Counter { total, .. } if total == 5.0));
        assert_eq!(collector.messages().len(), 1);
    }
}
