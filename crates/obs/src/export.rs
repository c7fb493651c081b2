//! Metrics exposition: Prometheus text + JSON rendering, and the route
//! table [`MetricsServer`] serves on the shared [`crate::http`] server
//! (a thread per connection, keep-alive unless the client closes, so a
//! silent connection never delays a scrape).
//!
//! Read path: every request takes an epoch-consistent
//! [`crate::registry::RegistrySnapshot`] (one timestamp, short
//! per-metric locks) — a scrape can never block a solve for longer than
//! one metric's mutex.
//!
//! Routes: `/metrics` (Prometheus text, version 0.0.4), `/snapshot`
//! (JSON, schema [`SNAPSHOT_SCHEMA`]), `/flight` (the flight-recorder
//! ring, schema [`crate::flight::SCHEMA`]).

use crate::http::{self, Request, Response, Routes, TEXT};
use crate::json::Json;
use crate::registry::{self, MetricSnapshot, RegistrySnapshot};
use std::fmt::Write as _;
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

/// Schema tag on `/snapshot` responses.
pub const SNAPSHOT_SCHEMA: &str = "spammass.metrics_snapshot/v1";

/// Maps a dotted metric name onto the Prometheus grammar:
/// `spammass_` prefix, dots to underscores, anything exotic to `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("spammass_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn prom_num(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v:?}")
    }
}

/// Renders a registry snapshot as Prometheus text format. Counters get a
/// companion `:rate_per_s` gauge (windowed); histograms render as
/// summaries with `quantile` labels plus windowed `_sum`/`_count`.
pub fn render_prometheus(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# spammass live metrics; window covers {}ns", snap.window_ns);
    for (name, metric) in &snap.entries {
        let p = prometheus_name(name);
        match metric {
            MetricSnapshot::Counter { total, windowed, rate_per_s } => {
                let _ = writeln!(out, "# TYPE {p} counter");
                let _ = writeln!(out, "{p} {}", prom_num(*total));
                let _ = writeln!(out, "# TYPE {p}_window gauge");
                let _ = writeln!(out, "{p}_window {}", prom_num(*windowed));
                let _ = writeln!(out, "{p}_rate_per_s {}", prom_num(*rate_per_s));
            }
            MetricSnapshot::Gauge { value, age_ns } => {
                let _ = writeln!(out, "# TYPE {p} gauge");
                let _ = writeln!(out, "{p} {}", prom_num(*value));
                let _ = writeln!(out, "{p}_age_ns {}", prom_num(*age_ns as f64));
            }
            MetricSnapshot::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {p} summary");
                for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                    let v = h.percentile(q).unwrap_or(f64::NAN);
                    let _ = writeln!(out, "{p}{{quantile=\"{label}\"}} {}", prom_num(v));
                }
                let _ = writeln!(out, "{p}_sum {}", prom_num(h.histogram().sum()));
                let _ = writeln!(out, "{p}_count {}", h.histogram().count());
                let _ = writeln!(out, "{p}_exact {}", u8::from(h.is_exact()));
            }
        }
    }
    out
}

/// Renders a registry snapshot as the `/snapshot` JSON document.
pub fn snapshot_json(snap: &RegistrySnapshot) -> Json {
    let metrics: Vec<(String, Json)> = snap
        .entries
        .iter()
        .map(|(name, metric)| {
            let value = match metric {
                MetricSnapshot::Counter { total, windowed, rate_per_s } => Json::obj([
                    ("kind", Json::str("counter")),
                    ("total", Json::num(*total)),
                    ("windowed", Json::num(*windowed)),
                    ("rate_per_s", Json::num(*rate_per_s)),
                ]),
                MetricSnapshot::Gauge { value, age_ns } => Json::obj([
                    ("kind", Json::str("gauge")),
                    ("value", Json::num(*value)),
                    ("age_ns", Json::uint(*age_ns)),
                ]),
                MetricSnapshot::Histogram(h) => {
                    let mut fields = vec![("kind".to_string(), Json::str("histogram"))];
                    if let Json::Obj(rest) = h.to_json() {
                        fields.extend(rest);
                    }
                    Json::Obj(fields)
                }
            };
            (name.clone(), value)
        })
        .collect();
    Json::obj([
        ("schema", Json::str(SNAPSHOT_SCHEMA)),
        ("at_ns", Json::uint(snap.at_ns)),
        ("window_ns", Json::uint(snap.window_ns)),
        ("metrics", Json::Obj(metrics)),
    ])
}

static SERVING: Mutex<Option<SocketAddr>> = Mutex::new(None);

/// The address the process's metrics server is bound to, if one is
/// running. Lets tests and siblings discover an ephemeral `:0` port.
pub fn serving_addr() -> Option<SocketAddr> {
    *SERVING.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running metrics exposition server. Dropping it stops the server
/// and clears [`serving_addr`].
pub struct MetricsServer {
    http: http::Server,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, `:0` for ephemeral) and
    /// serves the global registry and flight recorder until dropped.
    pub fn start(addr: &str) -> io::Result<MetricsServer> {
        let http = http::start(addr, Arc::new(Exposition))?;
        *SERVING.lock().unwrap_or_else(|e| e.into_inner()) = Some(http.local_addr());
        Ok(MetricsServer { http })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        let mut serving = SERVING.lock().unwrap_or_else(|e| e.into_inner());
        if *serving == Some(self.local_addr()) {
            *serving = None;
        }
    }
}

/// The exporter's route table.
struct Exposition;

impl Routes for Exposition {
    fn route(&self, request: &Request) -> Response {
        if request.method != "GET" {
            return ("405 Method Not Allowed", TEXT, "only GET is served\n".to_string());
        }
        if !matches!(request.path.as_str(), "/metrics" | "/snapshot" | "/flight") {
            return ("404 Not Found", TEXT, "routes: /metrics /snapshot /flight\n".to_string());
        }
        // Counted before rendering: a scrape sees itself.
        crate::counter(crate::names::EXPORT_SCRAPES, 1.0);
        match request.path.as_str() {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render_prometheus(&registry::global().snapshot()),
            ),
            "/snapshot" => http::json(&snapshot_json(&registry::global().snapshot())),
            _ => http::json(&crate::flight::global().to_json()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prometheus_name("pagerank.pool.threads"), "spammass_pagerank_pool_threads");
        assert_eq!(
            prometheus_name("pagerank.worker.0.gather_ns"),
            "spammass_pagerank_worker_0_gather_ns"
        );
    }

    #[test]
    fn prometheus_rendering_covers_all_kinds() {
        let r = MetricsRegistry::new();
        r.counter_add("a.hits", 5.0);
        r.gauge_set("a.ratio", 0.5);
        for v in 1..=100u32 {
            r.observe("a.ns", f64::from(v));
        }
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("# TYPE spammass_a_hits counter"), "{text}");
        assert!(text.contains("spammass_a_hits 5.0"), "{text}");
        assert!(text.contains("spammass_a_hits_rate_per_s"), "{text}");
        assert!(text.contains("spammass_a_ratio 0.5"), "{text}");
        assert!(text.contains("# TYPE spammass_a_ns summary"), "{text}");
        assert!(text.contains("spammass_a_ns{quantile=\"0.5\"} 50.0"), "{text}");
        assert!(text.contains("spammass_a_ns{quantile=\"0.99\"} 99.0"), "{text}");
        assert!(text.contains("spammass_a_ns_count 100"), "{text}");
        assert!(text.contains("spammass_a_ns_exact 1"), "{text}");
    }

    #[test]
    fn snapshot_json_is_parseable_and_tagged() {
        let r = MetricsRegistry::new();
        r.counter_add("b.hits", 2.0);
        r.observe("b.ns", 42.0);
        let doc = snapshot_json(&r.snapshot()).render();
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SNAPSHOT_SCHEMA));
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(
            metrics.get("b.hits").and_then(|m| m.get("kind")).and_then(Json::as_str),
            Some("counter")
        );
        assert_eq!(
            metrics.get("b.ns").and_then(|m| m.get("p50")).and_then(Json::as_f64),
            Some(42.0)
        );
    }

    // Server round-trips (bind, scrape, shutdown) are pinned in
    // tests/live_plane.rs: they touch the process-global registry, which
    // unit tests must not flip on.
}
