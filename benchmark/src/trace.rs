//! In-memory spans around the calls into each layer.
//!
//! A span is `{rep, name, parent, start_ns, end_ns, counts}`; spans of one
//! repetition (pipeline run, refresh, request) share `rep`. Nothing is
//! written until the run ends. With tracing off every call is a branch and
//! nothing is recorded, so the untraced pass times the bare calls.

use crate::util::{ctx, median, Res};
use spammass_obs::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct SpanRec {
    pub rep: u32,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, f64)>,
}

impl SpanRec {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Handle of an open span; inert when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    rep: u32,
    open: Vec<usize>,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), rep: 0, open: Vec::new(), spans: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Spans begun from now on belong to repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let now = self.ns(Instant::now());
        self.spans.push(SpanRec {
            rep: self.rep,
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.ns(Instant::now());
            let top = self.open.pop();
            debug_assert_eq!(top, Some(i), "spans must close innermost first");
        }
    }

    /// Attaches a count to an open or closed span.
    pub fn count(&mut self, id: SpanId, key: &'static str, value: f64) {
        if let Some(i) = id.0 {
            self.spans[i].counts.push((key, value));
        }
    }

    /// Times `f` as a child of the innermost open span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span whose endpoints were measured by the caller (the
    /// load generator already holds both instants of every request).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(SpanRec {
                rep: self.rep,
                name,
                parent: self.open.last().copied(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                counts: Vec::new(),
            });
        }
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(SpanRec::seconds).collect()
    }

    /// Median duration in seconds of the spans called `name`.
    pub fn median_seconds(&self, name: &str) -> f64 {
        median(&self.seconds_of(name))
    }

    /// Every value recorded under `key` on spans called `name`.
    pub fn counts_of(&self, name: &str, key: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counts.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v))
            .collect()
    }

    /// Median of the values recorded under `key` on spans called `name`.
    pub fn median_count(&self, name: &str, key: &str) -> f64 {
        median(&self.counts_of(name, key))
    }

    /// Median over repetitions of what the layer spans leave uncovered.
    pub fn median_gap(&self, root: &str) -> f64 {
        median(&self.gaps(root).iter().map(|(_, gap)| *gap).collect::<Vec<_>>())
    }

    /// Self time of span `i`: its duration minus what its children cover.
    pub fn self_seconds(&self, i: usize) -> f64 {
        let children: f64 =
            self.spans.iter().filter(|s| s.parent == Some(i)).map(SpanRec::seconds).sum();
        self.spans[i].seconds() - children
    }

    /// For every span called `root`: `(duration, self time)`. The self
    /// time of a repetition's root is the part of its wall clock no layer
    /// span accounts for.
    pub fn gaps(&self, root: &str) -> Vec<(f64, f64)> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == root)
            .map(|i| (self.spans[i].seconds(), self.self_seconds(i)))
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, workload: &str, path: &Path) -> Res<()> {
        let file = ctx("create trace file", std::fs::File::create(path))?;
        let mut out = std::io::BufWriter::new(file);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("workload", Json::str(workload)),
                ("rep", Json::uint(u64::from(s.rep))),
                ("id", Json::uint(i as u64)),
                ("span", Json::str(s.name)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::uint(p as u64))),
                ("start_ns", Json::uint(s.start_ns)),
                ("end_ns", Json::uint(s.end_ns)),
                ("counts", Json::obj(s.counts.iter().map(|(k, v)| (*k, Json::num(*v))))),
            ]);
            ctx("write trace", writeln!(out, "{}", line.render()))?;
        }
        ctx("flush trace", out.flush())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn untraced_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.begin("rep");
        assert_eq!(t.time("layer", || 5), 5);
        t.count(root, "edges", 1.0);
        t.end(root);
        assert!(t.seconds_of("rep").is_empty() && t.gaps("rep").is_empty());
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        let e = t.epoch;
        let at = |ms: u64| e + Duration::from_millis(ms);
        t.set_rep(3);
        let root = t.begin("rep");
        t.record("a", at(10), at(40));
        t.record("b", at(40), at(90));
        t.count(root, "edges", 12.0);
        t.end(root);
        t.spans[0].start_ns = 10_000_000;
        t.spans[0].end_ns = 100_000_000;
        let gaps = t.gaps("rep");
        assert_eq!(gaps.len(), 1);
        assert!((gaps[0].0 - 0.090).abs() < 1e-12 && (gaps[0].1 - 0.010).abs() < 1e-12);
        assert_eq!(t.seconds_of("b"), vec![0.05]);
        assert_eq!(t.counts_of("rep", "edges"), vec![12.0]);
        assert!(t.spans.iter().all(|s| s.rep == 3));
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
