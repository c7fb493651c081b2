//! Machine-readable run reports.
//!
//! A [`RunReport`] is the end-of-run artifact tying everything together:
//! what command ran with which parameters, the stage timing tree, every
//! registered metric, the structured events, and the headline results.
//! It serializes to a single JSON document (schema
//! [`RunReport::SCHEMA`]) whose top-level keys are fixed
//! ([`RunReport::REQUIRED_KEYS`]) so downstream tooling can validate a
//! report without knowing the command that produced it.

use crate::collector::Collector;
use crate::json::Json;
use crate::metrics::Metric;
use crate::span::SpanNode;

/// A complete description of one pipeline run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The command that ran (e.g. `"estimate"`).
    pub command: String,
    /// Input parameters, in insertion order.
    pub params: Vec<(String, Json)>,
    /// Headline results, in insertion order.
    pub results: Vec<(String, Json)>,
    /// The stage timing forest.
    pub stages: Vec<SpanNode>,
    /// Every registered metric, sorted by name.
    pub metrics: Vec<(String, Metric)>,
    /// Structured events, in emission order.
    pub events: Vec<(String, Vec<(String, Json)>)>,
}

impl RunReport {
    /// Schema identifier stamped into every report.
    pub const SCHEMA: &'static str = "spammass.run_report/v1";

    /// Top-level keys every report carries, in serialization order.
    pub const REQUIRED_KEYS: [&'static str; 7] =
        ["schema", "command", "params", "stages", "metrics", "events", "results"];

    /// Builds a report from a collector's metrics and event log. Call
    /// after all spans have closed (drop the install guard first), then
    /// attach params and results.
    pub fn build(command: &str, collector: &Collector) -> RunReport {
        RunReport {
            command: command.to_string(),
            params: Vec::new(),
            results: Vec::new(),
            stages: collector.span_tree(),
            metrics: collector.metrics_snapshot(),
            events: collector.messages(),
        }
    }

    /// Attaches an input parameter.
    #[must_use]
    pub fn param(mut self, key: &str, value: Json) -> Self {
        self.params.push((key.to_string(), value));
        self
    }

    /// Attaches a headline result.
    #[must_use]
    pub fn result(mut self, key: &str, value: Json) -> Self {
        self.results.push((key.to_string(), value));
        self
    }

    /// The full JSON document.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, metric)| {
                (
                    name.clone(),
                    Json::obj([("kind", Json::str(metric.kind())), ("value", metric.to_json())]),
                )
            })
            .collect();
        let events = self
            .events
            .iter()
            .map(|(name, fields)| {
                let mut obj = vec![("name".to_string(), Json::str(name))];
                obj.extend(fields.iter().map(|(k, v)| (k.clone(), v.clone())));
                Json::Obj(obj)
            })
            .collect();
        Json::obj([
            ("schema", Json::str(Self::SCHEMA)),
            ("command", Json::str(&self.command)),
            ("params", Json::Obj(self.params.clone())),
            ("stages", Json::Arr(self.stages.iter().map(SpanNode::to_json).collect())),
            ("metrics", Json::Obj(metrics)),
            ("events", Json::Arr(events)),
            ("results", Json::Obj(self.results.clone())),
        ])
    }

    /// Renders [`RunReport::to_json`] to a string.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Checks that a parsed document is a structurally valid run report:
    /// an object with every required key, the right schema tag, and the
    /// right shape for each section.
    pub fn validate(doc: &Json) -> Result<(), String> {
        for key in Self::REQUIRED_KEYS {
            if doc.get(key).is_none() {
                return Err(format!("missing required key `{key}`"));
            }
        }
        match doc.get("schema").and_then(Json::as_str) {
            Some(schema) if schema == Self::SCHEMA => {}
            Some(other) => return Err(format!("unknown schema `{other}`")),
            None => return Err("`schema` is not a string".to_string()),
        }
        if doc.get("command").and_then(Json::as_str).is_none() {
            return Err("`command` is not a string".to_string());
        }
        for key in ["params", "metrics", "results"] {
            if !matches!(doc.get(key), Some(Json::Obj(_))) {
                return Err(format!("`{key}` is not an object"));
            }
        }
        for key in ["stages", "events"] {
            if !matches!(doc.get(key), Some(Json::Arr(_))) {
                return Err(format!("`{key}` is not an array"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    fn sample_report() -> RunReport {
        let collector = Collector::builder().build();
        {
            let _g = collector.install();
            {
                let _outer = span("estimate");
                let _inner = span("pagerank");
            }
            crate::counter("graph.ingest.lines", 10.0);
            crate::observe("pagerank.residual", 1e-9);
            crate::event("pagerank.chain.attempt", vec![("solver".into(), Json::str("jacobi"))]);
        }
        RunReport::build("estimate", &collector)
            .param("damping", Json::num(0.85))
            .result("flagged", Json::uint(3))
    }

    #[test]
    fn report_carries_all_sections() {
        let report = sample_report();
        assert_eq!(report.stages.len(), 1);
        assert_eq!(report.stages[0].record.name, "estimate");
        assert_eq!(report.stages[0].children.len(), 1);
        assert_eq!(report.metrics.len(), 2);
        assert_eq!(report.events.len(), 1);
    }

    #[test]
    fn json_round_trips_and_validates() {
        let report = sample_report();
        let rendered = report.render();
        let parsed = Json::parse(&rendered).expect("report JSON parses");
        RunReport::validate(&parsed).expect("report validates");
        assert_eq!(parsed, report.to_json());
        // Spot-check nested content survived the round trip.
        let stages = parsed.get("stages").and_then(Json::as_arr).unwrap();
        assert_eq!(stages[0].get("name").and_then(Json::as_str), Some("estimate"));
        let metrics = parsed.get("metrics").unwrap();
        let lines = metrics.get("graph.ingest.lines").unwrap();
        assert_eq!(lines.get("kind").and_then(Json::as_str), Some("counter"));
        assert_eq!(lines.get("value").and_then(Json::as_f64), Some(10.0));
        assert_eq!(parsed.get("results").unwrap().get("flagged").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(RunReport::validate(&Json::Null).is_err());
        let missing = Json::obj([("schema", Json::str(RunReport::SCHEMA))]);
        assert!(RunReport::validate(&missing).unwrap_err().contains("command"));
        let mut doc = sample_report().to_json();
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::str("other/v9");
        }
        assert!(RunReport::validate(&doc).unwrap_err().contains("unknown schema"));
    }
}
