//! The collector: one run's record — every event it heard, in order,
//! plus the metric totals those events add up to — installed
//! per-thread with RAII scoping.
//!
//! Telemetry is **opt-in and thread-scoped**: library code calls the
//! facade functions ([`crate::counter`], [`crate::span`], …)
//! unconditionally, and they no-op — a thread-local lookup and a branch —
//! unless a [`Collector`] is installed on the current thread (or the
//! live plane is on). This keeps instrumented hot paths free of
//! configuration plumbing, keeps default CLI output byte-stable, and
//! keeps parallel test runs isolated (each test installs its own
//! collector on its own thread).
//!
//! Scoping is a stack: nested installs shadow the outer collector and
//! restore it when the inner [`ScopeGuard`] drops. Worker threads spawned
//! by an instrumented computation do not inherit the collector; spans and
//! metrics are emitted from the orchestrating thread, which is where the
//! pipeline stages of this system run.

use crate::event::Event;
use crate::json::Json;
use crate::metrics::{Histogram, Metric};
use crate::span::{build_span_tree, render_span_tree, SpanNode, SpanRecord};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// A telemetry collector: an epoch for relative timestamps, the log of
/// every event it heard, and the metrics those events registered. Cheap
/// to clone (shared interior).
#[derive(Clone)]
pub struct Collector {
    inner: Arc<Inner>,
}

struct Inner {
    epoch: Instant,
    record: Mutex<Record>,
}

#[derive(Default)]
struct Record {
    metrics: BTreeMap<String, Metric>,
    events: Vec<Event>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector").field("events", &self.lock().events.len()).finish()
    }
}

/// Builder for a [`Collector`].
#[derive(Default)]
pub struct CollectorBuilder;

impl CollectorBuilder {
    /// Finishes the collector; its epoch (timestamp zero) is now.
    pub fn build(self) -> Collector {
        Collector { inner: Arc::new(Inner { epoch: Instant::now(), record: Mutex::default() }) }
    }
}

impl Collector {
    /// Starts building a collector.
    pub fn builder() -> CollectorBuilder {
        CollectorBuilder
    }

    /// Installs this collector on the current thread until the returned
    /// guard drops. Nested installs shadow the outer collector.
    #[must_use = "telemetry is only active while the guard is alive"]
    pub fn install(&self) -> ScopeGuard {
        let prev_len = CURRENT.with(|c| {
            let mut stack = c.borrow_mut();
            stack.push(self.clone());
            stack.len() - 1
        });
        ScopeGuard { prev_len, _not_send: PhantomData }
    }

    /// Nanoseconds elapsed since the collector's epoch.
    pub(crate) fn elapsed_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> MutexGuard<'_, Record> {
        self.inner.record.lock().expect("collector lock")
    }

    /// Applies an event to the metric totals and appends it to the log.
    /// A counter event leaves with the counter's running total filled
    /// in. Updates against a different metric kind are ignored (the
    /// first registration wins); a counter's total then reads NaN.
    pub(crate) fn record(&self, mut event: Event) {
        let mut record = self.lock();
        let metrics = &mut record.metrics;
        match &mut event {
            Event::Counter { name, delta, total } => {
                *total = match metric(metrics, name, || Metric::Counter(0.0)) {
                    Metric::Counter(sum) => {
                        *sum += *delta;
                        *sum
                    }
                    _ => f64::NAN,
                }
            }
            Event::Gauge { name, value } => {
                if let Metric::Gauge(slot) = metric(metrics, name, || Metric::Gauge(*value)) {
                    *slot = *value;
                }
            }
            Event::Observe { name, value } => {
                if let Metric::Histogram(h) =
                    metric(metrics, name, || Metric::Histogram(Histogram::new()))
                {
                    h.record(*value);
                }
            }
            _ => {}
        }
        record.events.push(event);
    }

    /// A snapshot of every registered metric, sorted by name.
    pub fn metrics_snapshot(&self) -> Vec<(String, Metric)> {
        self.lock().metrics.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// All events, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.lock().events.clone()
    }

    /// The closed spans, in close (emission) order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let record = self.lock();
        let spans = record.events.iter().filter_map(|e| match e {
            Event::SpanEnd(span) => Some(span.clone()),
            _ => None,
        });
        spans.collect()
    }

    /// The structured messages, in emission order.
    pub fn messages(&self) -> Vec<(String, Vec<(String, Json)>)> {
        let record = self.lock();
        let messages = record.events.iter().filter_map(|e| match e {
            Event::Message { name, fields } => Some((name.clone(), fields.clone())),
            _ => None,
        });
        messages.collect()
    }

    /// The closed spans assembled into a forest by nesting.
    pub fn span_tree(&self) -> Vec<SpanNode> {
        build_span_tree(&self.spans())
    }

    /// Human-readable indented timing tree of [`Collector::span_tree`].
    pub fn render_tree(&self) -> String {
        render_span_tree(&self.span_tree())
    }
}

/// The metric named `name`, registered by `make` on first use.
fn metric<'a>(
    metrics: &'a mut BTreeMap<String, Metric>,
    name: &str,
    make: impl FnOnce() -> Metric,
) -> &'a mut Metric {
    if !metrics.contains_key(name) {
        metrics.insert(name.to_string(), make());
    }
    metrics.get_mut(name).expect("registered above")
}

thread_local! {
    static CURRENT: RefCell<Vec<Collector>> = const { RefCell::new(Vec::new()) };
}

/// Uninstalls the collector when dropped (restoring any shadowed one).
/// Deliberately `!Send`: the guard must drop on the thread that installed.
pub struct ScopeGuard {
    prev_len: usize,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.borrow_mut().truncate(self.prev_len));
    }
}

/// The innermost collector installed on this thread, if any.
pub(crate) fn current() -> Option<Collector> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Whether a collector is installed on the current thread. Use to skip
/// building expensive telemetry payloads (e.g. per-node histogram loops)
/// when no run is being recorded.
pub fn is_enabled() -> bool {
    CURRENT.with(|c| !c.borrow().is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        assert!(!is_enabled());
        assert!(current().is_none());
    }

    #[test]
    fn install_scopes_nest_and_restore() {
        let outer = Collector::builder().build();
        let inner = Collector::builder().build();
        {
            let _g1 = outer.install();
            assert!(is_enabled());
            crate::counter("outer", 1.0);
            {
                let _g2 = inner.install();
                crate::counter("x", 1.0);
            }
            // Inner popped; updates land on outer again.
            crate::counter("outer", 1.0);
        }
        assert!(!is_enabled());
        assert_eq!(inner.metrics_snapshot().len(), 1);
        let outer_metrics = outer.metrics_snapshot();
        assert_eq!(outer_metrics.len(), 1);
        assert_eq!(outer_metrics[0].1, Metric::Counter(2.0));
    }

    #[test]
    fn kind_mismatch_is_ignored() {
        let c = Collector::builder().build();
        c.record(Event::Gauge { name: "m".into(), value: 5.0 });
        c.record(Event::Counter { name: "m".into(), delta: 1.0, total: 0.0 });
        c.record(Event::Observe { name: "m".into(), value: 1.0 });
        assert_eq!(c.metrics_snapshot()[0].1, Metric::Gauge(5.0));
        match &c.events()[1] {
            Event::Counter { total, .. } => assert!(total.is_nan()),
            other => panic!("expected the counter event, got {other:?}"),
        }
    }

    fn span_end(name: &str, elapsed_ns: u64) -> Event {
        Event::SpanEnd(SpanRecord {
            name: name.into(),
            path: name.into(),
            depth: 0,
            start_ns: 0,
            elapsed_ns,
            counters: Vec::new(),
        })
    }

    #[test]
    fn events_render_as_one_json_line_each() {
        // `--trace json` writes one rendered event per line, in log order.
        let c = Collector::builder().build();
        {
            let _g = c.install();
            crate::counter("lines", 1.0);
            crate::gauge("ratio", 0.5);
        }
        let lines: Vec<String> = c.events().iter().map(|e| e.to_json().render()).collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| !l.contains('\n')), "{lines:?}");
        let first = Json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("event").and_then(Json::as_str), Some("counter"));
        assert_eq!(first.get("total").and_then(Json::as_f64), Some(1.0));
        let second = Json::parse(&lines[1]).unwrap();
        assert_eq!(second.get("event").and_then(Json::as_str), Some("gauge"));
    }

    #[test]
    fn render_tree_draws_closed_spans_only_and_repeats() {
        // Non-span events stay out of the tree, and rendering reads the
        // log without consuming it: a second render is the same text.
        let c = Collector::builder().build();
        c.record(span_end("stage", 1_000));
        c.record(Event::Gauge { name: "ignored".into(), value: 1.0 });
        assert_eq!(c.render_tree(), "stage 1.0us\n");
        assert_eq!(c.render_tree(), "stage 1.0us\n");
        assert_eq!(c.events().len(), 2);
    }
}
