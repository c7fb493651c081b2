//! Hierarchical timed spans.
//!
//! A span measures one named stage of the pipeline. Spans nest lexically:
//! the thread keeps a stack of open span names, and a new span's dotted
//! `path` is the concatenation of everything currently open. Dropping the
//! guard closes the span and emits a [`SpanRecord`] carrying wall-clock
//! duration and any counters recorded on the span. [`SpanNode`] and
//! [`build_span_tree`] reassemble the closed records into the nesting.
//!
//! With no collector installed and the live plane off, [`span`] returns
//! an inert guard and the whole mechanism costs one thread-local read
//! plus one relaxed atomic load.
//!
//! Spans are **panic-safe**: closing happens in `Drop`, which also runs
//! during unwinding, so a panic mid-span still finalizes timing and
//! flushes the record to the collector and the flight recorder. Crash
//! dumps therefore carry a correct partial span tree — every span open
//! at the panic has its `span_start` in the ring, and every span the
//! unwind closes lands as a `span_end` before the process dies.

use crate::collector::{self, Collector};
use crate::event::Event;
use crate::json::Json;
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
    /// JSON form (without children; see [`SpanNode`]).
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
    /// The collector installed when the span opened; `None` when the
    /// span is open only because the live plane is on.
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
/// and the live plane is off.
pub fn span(name: &str) -> Span {
    let collector = collector::current();
    if !crate::anyone_listening(collector.as_ref()) {
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
    // Timestamps are relative to the collector's epoch; the flight ring
    // stamps its entries itself.
    let start_ns = collector.as_ref().map_or(0, Collector::elapsed_ns);
    crate::dispatch(collector.as_ref(), || Event::SpanStart {
        path: path.clone(),
        depth,
        start_ns,
    });
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
            crate::dispatch(active.collector.as_ref(), || Event::SpanEnd(record));
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

/// A span with its child spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// The span itself.
    pub record: SpanRecord,
    /// Spans opened while this one was open, in start order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Sum of the children's wall-clock durations.
    pub fn children_elapsed_ns(&self) -> u64 {
        self.children.iter().map(|c| c.record.elapsed_ns).sum()
    }

    /// JSON form including nested children.
    pub fn to_json(&self) -> Json {
        let mut fields = match self.record.to_json() {
            Json::Obj(fields) => fields,
            _ => unreachable!("SpanRecord::to_json returns an object"),
        };
        fields.push((
            "children".to_string(),
            Json::Arr(self.children.iter().map(SpanNode::to_json).collect()),
        ));
        Json::Obj(fields)
    }
}

/// Assembles closed-span records into a forest. Spans are emitted on a
/// single thread, so siblings at a given depth never overlap in time;
/// sorting by start offset and threading on depth reconstructs the
/// nesting exactly.
pub(crate) fn build_span_tree(records: &[SpanRecord]) -> Vec<SpanNode> {
    let mut sorted: Vec<SpanRecord> = records.to_vec();
    sorted.sort_by_key(|a| (a.start_ns, a.depth));

    let mut roots: Vec<SpanNode> = Vec::new();
    // Chain of currently-open ancestors, outermost first.
    let mut open: Vec<SpanNode> = Vec::new();

    fn close_one(open: &mut Vec<SpanNode>, roots: &mut Vec<SpanNode>) {
        let done = open.pop().expect("close_one on empty stack");
        match open.last_mut() {
            Some(parent) => parent.children.push(done),
            None => roots.push(done),
        }
    }

    for record in sorted {
        while open.len() > record.depth {
            close_one(&mut open, &mut roots);
        }
        open.push(SpanNode { record, children: Vec::new() });
    }
    while !open.is_empty() {
        close_one(&mut open, &mut roots);
    }
    roots
}

/// Formats a duration in nanoseconds with an adaptive unit.
pub(crate) fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Renders a span forest as an indented timing tree.
pub(crate) fn render_span_tree(nodes: &[SpanNode]) -> String {
    fn walk(node: &SpanNode, out: &mut String) {
        out.push_str(&"  ".repeat(node.record.depth));
        out.push_str(&node.record.name);
        out.push(' ');
        out.push_str(&format_ns(node.record.elapsed_ns));
        for (key, value) in &node.record.counters {
            // Counters are typically integral (lines, edges, iterations);
            // print them without a trailing ".0" when they are.
            if value.fract() == 0.0 && value.abs() < 1e15 {
                out.push_str(&format!(" {key}={value:.0}"));
            } else {
                out.push_str(&format!(" {key}={value}"));
            }
        }
        out.push('\n');
        for child in &node.children {
            walk(child, out);
        }
    }
    let mut out = String::new();
    for node in nodes {
        walk(node, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, depth: usize, start_ns: u64, elapsed_ns: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            path: name.to_string(),
            depth,
            start_ns,
            elapsed_ns,
            counters: Vec::new(),
        }
    }

    #[test]
    fn inert_without_collector() {
        let mut s = span("nobody-listening");
        s.record("k", 1.0);
        drop(s);
        STACK.with(|st| assert!(st.borrow().is_empty()));
    }

    #[test]
    fn paths_and_depths_nest() {
        let collector = Collector::builder().build();
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
        let spans = collector.spans();
        let paths: Vec<&str> = spans.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["a.b.c", "a.b", "a.d", "a"]);
        let depths: Vec<usize> = spans.iter().map(|r| r.depth).collect();
        assert_eq!(depths, [2, 1, 1, 0]);
        assert_eq!(spans[0].name, "c");
    }

    #[test]
    fn timing_is_monotone_and_contains_children() {
        let collector = Collector::builder().build();
        let _g = collector.install();
        {
            let _outer = span("outer");
            let _inner = span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = collector.spans();
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
        let collector = Collector::builder().build();
        let _g = collector.install();
        {
            let mut s = span("s");
            s.record("edges", 3.0);
            s.record("edges", 4.0);
            s.record("lines", 1.0);
        }
        let spans = collector.spans();
        assert_eq!(spans[0].counters, vec![("edges".into(), 7.0), ("lines".into(), 1.0)]);
    }

    #[test]
    fn spans_flush_during_panic_unwind() {
        let collector = Collector::builder().build();
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
        let spans = collector.spans();
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
        let collector = Collector::builder().build();
        let _g = collector.install();
        {
            let _s = crate::span!("via-macro");
        }
        assert_eq!(collector.spans()[0].name, "via-macro");
    }

    #[test]
    fn tree_building_nests_by_depth_and_start() {
        // estimate { pagerank, pagerank_core } then detect, handed over
        // in drop (close) order.
        let records = vec![
            record("pagerank", 1, 10, 50),
            record("pagerank_core", 1, 70, 40),
            record("estimate", 0, 0, 120),
            record("detect", 0, 130, 10),
        ];
        let tree = build_span_tree(&records);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[0].record.name, "estimate");
        let kids: Vec<&str> = tree[0].children.iter().map(|c| c.record.name.as_str()).collect();
        assert_eq!(kids, ["pagerank", "pagerank_core"]);
        assert_eq!(tree[0].children_elapsed_ns(), 90);
        assert_eq!(tree[1].record.name, "detect");
        assert!(tree[1].children.is_empty());
    }

    #[test]
    fn render_indents_and_formats_counters() {
        let mut parent = record("outer", 0, 0, 2_500_000);
        parent.counters.push(("edges".to_string(), 12.0));
        let child = record("inner", 1, 5, 1_000);
        let tree = build_span_tree(&[child, parent]);
        let rendered = render_span_tree(&tree);
        assert_eq!(rendered, "outer 2.5ms edges=12\n  inner 1.0us\n");
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(999), "999ns");
        assert_eq!(format_ns(1_500), "1.5us");
        assert_eq!(format_ns(2_000_000), "2.0ms");
        assert_eq!(format_ns(3_210_000_000), "3.21s");
    }
}
