//! Hierarchical timed spans.
//!
//! A span measures one named stage of the pipeline. Spans nest lexically:
//! the thread keeps a stack of open span names, and a new span's dotted
//! `path` is the concatenation of everything currently open. Dropping the
//! guard closes the span and emits a [`SpanRecord`] carrying wall-clock
//! duration and any counters recorded on the span.
//!
//! With no collector installed (and the global flight recorder off),
//! [`span`] returns an inert guard and the whole mechanism costs one
//! thread-local read plus one relaxed atomic load.
//!
//! Spans are **panic-safe**: closing happens in `Drop`, which also runs
//! during unwinding, so a panic mid-span still finalizes timing and
//! flushes the record to the collector and the flight recorder. Crash
//! dumps therefore carry a correct partial span tree — every span open
//! at the panic has its `span_start` in the ring, and every span the
//! unwind closes lands as a `span_end` before the process dies.

use crate::collector::{with_current, Collector};
use crate::json::Json;
use crate::sink::Event;
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// A closed span: timing plus per-span counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Leaf name, e.g. `"pagerank_core"`.
    pub name: String,
    /// Dotted path from the root, e.g. `"estimate.pagerank_core"`.
    pub path: String,
    /// Nesting depth (0 for a root span).
    pub depth: usize,
    /// Start time in nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub elapsed_ns: u64,
    /// Counters recorded on the span, in recording order.
    pub counters: Vec<(String, f64)>,
}

impl SpanRecord {
    /// JSON form (without children; see [`crate::sink::SpanNode`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("path", Json::str(&self.path)),
            ("depth", Json::uint(self.depth as u64)),
            ("start_ns", Json::uint(self.start_ns)),
            ("elapsed_ns", Json::uint(self.elapsed_ns)),
            (
                "counters",
                Json::Obj(self.counters.iter().map(|(k, v)| (k.clone(), Json::num(*v))).collect()),
            ),
        ])
    }
}

/// An open span; closing (dropping) it emits the [`SpanRecord`].
#[must_use = "a span measures until it is dropped; binding it to _ closes it immediately"]
pub struct Span(Option<ActiveSpan>);

struct ActiveSpan {
    /// `None` when the span is live only because the flight recorder is
    /// on (no collector installed on this thread).
    collector: Option<Collector>,
    name: String,
    path: String,
    depth: usize,
    start: Instant,
    start_ns: u64,
    counters: Vec<(String, f64)>,
}

/// Opens a span named `name` under the innermost open span on this
/// thread. Inert (and allocation-free) when no collector is installed
/// and the global flight recorder is off.
pub fn span(name: &str) -> Span {
    let collector = with_current(Collector::clone);
    let flight_on = crate::flight::is_enabled();
    if collector.is_none() && !flight_on {
        return Span(None);
    }
    let (path, depth) = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let depth = stack.len();
        let path =
            if depth == 0 { name.to_string() } else { format!("{}.{}", stack.join("."), name) };
        stack.push(name.to_string());
        (path, depth)
    });
    // Timestamps are relative to the collector's epoch when one is
    // installed, else to the flight recorder's.
    let start_ns = match &collector {
        Some(c) => c.elapsed_ns(),
        None => crate::flight::elapsed_ns(),
    };
    if let Some(c) = &collector {
        c.emit(&Event::SpanStart { path: path.clone(), depth, start_ns });
    }
    if flight_on {
        crate::flight::note(
            "span_start",
            &path,
            &[("depth".to_string(), Json::uint(depth as u64))],
        );
    }
    Span(Some(ActiveSpan {
        collector,
        name: name.to_string(),
        path,
        depth,
        start: Instant::now(),
        start_ns,
        counters: Vec::new(),
    }))
}

impl Span {
    /// Records (or accumulates into) a counter scoped to this span.
    pub fn record(&mut self, key: &str, value: f64) {
        if let Some(active) = &mut self.0 {
            if let Some(slot) = active.counters.iter_mut().find(|(k, _)| k == key) {
                slot.1 += value;
            } else {
                active.counters.push((key.to_string(), value));
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            // Unwind the name stack to this span's depth. Truncation (not
            // pop) keeps the stack sane even if an inner span outlived an
            // outer one — including during panic unwinding, where drops
            // run innermost-first and this finalizes each span's timing.
            STACK.with(|s| s.borrow_mut().truncate(active.depth));
            let record = SpanRecord {
                name: active.name,
                path: active.path,
                depth: active.depth,
                start_ns: active.start_ns,
                elapsed_ns: active.start.elapsed().as_nanos() as u64,
                counters: active.counters,
            };
            if crate::flight::is_enabled() {
                crate::flight::note(
                    "span_end",
                    &record.path,
                    &[
                        ("elapsed_ns".to_string(), Json::uint(record.elapsed_ns)),
                        ("depth".to_string(), Json::uint(record.depth as u64)),
                    ],
                );
            }
            if let Some(collector) = active.collector {
                collector.emit(&Event::SpanEnd(record));
            }
        }
    }
}

/// `span!("name")` — convenience macro mirroring [`span`].
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Recorder;
    use std::sync::Arc;

    #[test]
    fn inert_without_collector() {
        let mut s = span("nobody-listening");
        s.record("k", 1.0);
        drop(s);
        STACK.with(|st| assert!(st.borrow().is_empty()));
    }

    #[test]
    fn paths_and_depths_nest() {
        let recorder = Arc::new(Recorder::default());
        let collector = Collector::builder().sink(recorder.clone()).build();
        let _g = collector.install();
        {
            let _a = span("a");
            {
                let _b = span("b");
                let _c = span("c");
            }
            let _d = span("d");
        }
        // Records arrive innermost-first (drop order).
        let spans = recorder.spans();
        let paths: Vec<&str> = spans.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["a.b.c", "a.b", "a.d", "a"]);
        let depths: Vec<usize> = spans.iter().map(|r| r.depth).collect();
        assert_eq!(depths, [2, 1, 1, 0]);
        assert_eq!(spans[0].name, "c");
    }

    #[test]
    fn timing_is_monotone_and_contains_children() {
        let recorder = Arc::new(Recorder::default());
        let collector = Collector::builder().sink(recorder.clone()).build();
        let _g = collector.install();
        {
            let _outer = span("outer");
            let _inner = span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = recorder.spans();
        let inner = spans.iter().find(|r| r.name == "inner").unwrap();
        let outer = spans.iter().find(|r| r.name == "outer").unwrap();
        assert!(inner.elapsed_ns >= 2_000_000, "slept 2ms: {}", inner.elapsed_ns);
        // Parent starts no later and runs no shorter than the child.
        assert!(outer.start_ns <= inner.start_ns);
        assert!(outer.elapsed_ns >= inner.elapsed_ns);
        // Start offsets are monotone with nesting order.
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn record_accumulates_per_key() {
        let recorder = Arc::new(Recorder::default());
        let collector = Collector::builder().sink(recorder.clone()).build();
        let _g = collector.install();
        {
            let mut s = span("s");
            s.record("edges", 3.0);
            s.record("edges", 4.0);
            s.record("lines", 1.0);
        }
        let spans = recorder.spans();
        assert_eq!(spans[0].counters, vec![("edges".into(), 7.0), ("lines".into(), 1.0)]);
    }

    #[test]
    fn spans_flush_during_panic_unwind() {
        let recorder = Arc::new(Recorder::default());
        let collector = Collector::builder().sink(recorder.clone()).build();
        let _g = collector.install();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut outer = span("solve");
            outer.record("sweeps", 3.0);
            let _inner = span("gather");
            std::thread::sleep(std::time::Duration::from_millis(1));
            panic!("injected mid-span");
        }));
        assert!(result.is_err());
        // Both spans finalized during unwind, innermost first, with
        // timing and per-span counters intact.
        let spans = recorder.spans();
        let paths: Vec<&str> = spans.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["solve.gather", "solve"]);
        assert!(spans[0].elapsed_ns >= 1_000_000, "timed through the unwind");
        assert_eq!(spans[1].counters, vec![("sweeps".to_string(), 3.0)]);
        // The thread-local name stack is clean: new spans nest at root.
        STACK.with(|st| assert!(st.borrow().is_empty()));
        {
            let _after = span("after");
            STACK.with(|st| assert_eq!(st.borrow().len(), 1));
        }
    }

    #[test]
    fn macro_form_works() {
        let recorder = Arc::new(Recorder::default());
        let collector = Collector::builder().sink(recorder.clone()).build();
        let _g = collector.install();
        {
            let _s = crate::span!("via-macro");
        }
        assert_eq!(recorder.spans()[0].name, "via-macro");
    }
}
