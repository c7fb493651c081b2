//! The telemetry event: what every facade call, span open and close,
//! pool-profiler flush and failpoint trip becomes on its way through
//! the one dispatch ([`crate::counter`] and friends).

use crate::json::Json;
use crate::span::SpanRecord;

/// One telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened.
    SpanStart {
        /// Dotted path of the span.
        path: String,
        /// Nesting depth.
        depth: usize,
        /// Start offset in nanoseconds since the collector epoch.
        start_ns: u64,
    },
    /// A span closed.
    SpanEnd(SpanRecord),
    /// A counter was incremented.
    Counter {
        /// Metric name.
        name: String,
        /// Amount added.
        delta: f64,
        /// Running total after the addition.
        total: f64,
    },
    /// A gauge was set.
    Gauge {
        /// Metric name.
        name: String,
        /// New value.
        value: f64,
    },
    /// A histogram sample was recorded.
    Observe {
        /// Metric name.
        name: String,
        /// Sample value.
        value: f64,
    },
    /// A structured one-off message (e.g. a solver-chain attempt).
    Message {
        /// Event name, dotted like metric names.
        name: String,
        /// Ordered payload fields.
        fields: Vec<(String, Json)>,
    },
    /// An armed failpoint tripped.
    Failpoint {
        /// The failpoint site.
        name: String,
        /// What it injects: `error` or `panic`.
        action: &'static str,
    },
}

impl Event {
    /// JSON form, tagged with `"event"`.
    pub fn to_json(&self) -> Json {
        match self {
            Event::SpanStart { path, depth, start_ns } => Json::obj([
                ("event", Json::str("span_start")),
                ("path", Json::str(path)),
                ("depth", Json::uint(*depth as u64)),
                ("start_ns", Json::uint(*start_ns)),
            ]),
            Event::SpanEnd(record) => {
                let mut fields = vec![("event".to_string(), Json::str("span_end"))];
                if let Json::Obj(rest) = record.to_json() {
                    fields.extend(rest);
                }
                Json::Obj(fields)
            }
            Event::Counter { name, delta, total } => Json::obj([
                ("event", Json::str("counter")),
                ("name", Json::str(name)),
                ("delta", Json::num(*delta)),
                ("total", Json::num(*total)),
            ]),
            Event::Gauge { name, value } => Json::obj([
                ("event", Json::str("gauge")),
                ("name", Json::str(name)),
                ("value", Json::num(*value)),
            ]),
            Event::Observe { name, value } => Json::obj([
                ("event", Json::str("observe")),
                ("name", Json::str(name)),
                ("value", Json::num(*value)),
            ]),
            Event::Message { name, fields } => {
                let mut all = vec![
                    ("event".to_string(), Json::str("message")),
                    ("name".to_string(), Json::str(name)),
                ];
                all.extend(fields.iter().map(|(k, v)| (k.clone(), v.clone())));
                Json::Obj(all)
            }
            Event::Failpoint { name, action } => Json::obj([
                ("event", Json::str("failpoint")),
                ("name", Json::str(name)),
                ("action", Json::str(*action)),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_shapes() {
        let msg = Event::Message {
            name: "pagerank.chain.attempt".into(),
            fields: vec![("solver".to_string(), Json::str("jacobi"))],
        };
        let j = msg.to_json();
        assert_eq!(j.get("event").and_then(Json::as_str), Some("message"));
        assert_eq!(j.get("solver").and_then(Json::as_str), Some("jacobi"));
        let span = SpanRecord {
            name: "s".into(),
            path: "s".into(),
            depth: 0,
            start_ns: 3,
            elapsed_ns: 9,
            counters: Vec::new(),
        };
        let end = Event::SpanEnd(span).to_json();
        assert_eq!(end.get("event").and_then(Json::as_str), Some("span_end"));
        assert_eq!(end.get("elapsed_ns").and_then(Json::as_f64), Some(9.0));
        let trip = Event::Failpoint { name: "state.manifest.rename".into(), action: "panic" };
        let j = trip.to_json();
        assert_eq!(j.get("event").and_then(Json::as_str), Some("failpoint"));
        assert_eq!(j.get("action").and_then(Json::as_str), Some("panic"));
    }
}
