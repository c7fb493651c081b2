//! `--trace` / `--metrics-out` wiring shared by every subcommand.
//!
//! Telemetry is strictly opt-in: when neither flag is given no collector
//! is installed, every `span!`/counter call in the libraries stays a
//! no-op, and the command output is byte-identical to a build without
//! this module. With either flag present, one [`Collector`] records the
//! run and is rendered two ways at the end:
//!
//! * `--trace pretty` appends the indented span timing tree to the
//!   command's output; `--trace json` appends one JSON object per
//!   telemetry event (JSON-lines).
//! * `--metrics-out FILE` writes the full [`RunReport`] document
//!   (schema `spammass.run_report/v1`) to `FILE`.
//!
//! [`Collector`]: spammass_obs::Collector
//! [`RunReport`]: spammass_obs::RunReport

use crate::args::ParsedArgs;
use crate::CliError;
use spammass_obs as obs;
use std::path::PathBuf;

/// How `--trace` renders the captured run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Indented span tree with wall-clock timings and counters.
    Pretty,
    /// One JSON object per telemetry event (JSON-lines).
    Json,
}

/// Telemetry for one CLI invocation: the collector recording the run,
/// plus the output destinations chosen on the command line.
pub struct RunTelemetry {
    collector: obs::Collector,
    trace: Option<TraceMode>,
    metrics_out: Option<PathBuf>,
}

impl RunTelemetry {
    /// Builds telemetry from `--trace` / `--metrics-out`; `None` when
    /// neither flag is present (default output stays byte-identical).
    pub fn from_args(args: &ParsedArgs) -> Result<Option<RunTelemetry>, CliError> {
        let trace = match args.optional("trace") {
            None => None,
            Some("pretty") => Some(TraceMode::Pretty),
            Some("json") => Some(TraceMode::Json),
            Some(other) => {
                return Err(CliError::Usage(format!("--trace {other:?} (expected pretty or json)")))
            }
        };
        let metrics_out = args.optional("metrics-out").map(PathBuf::from);
        if trace.is_none() && metrics_out.is_none() {
            return Ok(None);
        }
        let collector = obs::Collector::builder().build();
        Ok(Some(RunTelemetry { collector, trace, metrics_out }))
    }

    /// Installs the collector on this thread; telemetry is captured
    /// until the guard drops.
    #[must_use = "telemetry is only captured while the guard is alive"]
    pub fn install(&self) -> obs::ScopeGuard {
        self.collector.install()
    }

    /// Builds the run report. Call after the install guard has dropped,
    /// so every span has closed.
    pub fn report(&self, args: &ParsedArgs) -> obs::RunReport {
        let mut report = obs::RunReport::build(&args.command, &self.collector);
        for (key, value) in args.flags() {
            report = report.param(key, obs::Json::str(value));
        }
        // Headline results: every scalar metric (counters and gauges);
        // histograms stay in the metrics section.
        for (name, metric) in self.collector.metrics_snapshot() {
            if metric.kind() != "histogram" {
                report = report.result(&name, metric.to_json());
            }
        }
        report
    }

    /// Writes `--metrics-out` and appends the `--trace` rendering to the
    /// command's report text.
    pub fn finish(&self, args: &ParsedArgs, mut text: String) -> Result<String, CliError> {
        let report = self.report(args);
        if let Some(path) = &self.metrics_out {
            let mut doc = report.render();
            doc.push('\n');
            std::fs::write(path, doc)?;
        }
        match self.trace {
            None => {}
            Some(TraceMode::Pretty) => {
                text.push_str(&self.collector.render_tree());
            }
            Some(TraceMode::Json) => {
                for event in self.collector.events() {
                    text.push_str(&event.to_json().render());
                    text.push('\n');
                }
            }
        }
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ParsedArgs {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        ParsedArgs::parse(&v).unwrap()
    }

    #[test]
    fn absent_flags_mean_no_telemetry() {
        let args = parse(&["stats", "--graph", "g.bin"]);
        assert!(RunTelemetry::from_args(&args).unwrap().is_none());
    }

    #[test]
    fn bad_trace_mode_is_usage_error() {
        let args = parse(&["stats", "--graph", "g.bin", "--trace", "xml"]);
        assert!(matches!(RunTelemetry::from_args(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn pretty_trace_appends_span_tree() {
        let args = parse(&["stats", "--graph", "g.bin", "--trace", "pretty"]);
        let tel = RunTelemetry::from_args(&args).unwrap().unwrap();
        {
            let _guard = tel.install();
            let _span = obs::span("demo.stage");
        }
        let out = tel.finish(&args, String::from("report\n")).unwrap();
        assert!(out.starts_with("report\n"), "{out}");
        assert!(out.contains("demo.stage"), "{out}");
    }

    #[test]
    fn json_trace_appends_parseable_events_and_report_validates() {
        let args = parse(&["stats", "--graph", "g.bin", "--trace", "json"]);
        let tel = RunTelemetry::from_args(&args).unwrap().unwrap();
        {
            let _guard = tel.install();
            let _span = obs::span("demo.stage");
            obs::counter("demo.count", 2.0);
        }
        let out = tel.finish(&args, String::new()).unwrap();
        for line in out.lines() {
            obs::Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let doc = tel.report(&args).to_json();
        obs::RunReport::validate(&doc).unwrap();
        // The scalar metric surfaces as a headline result.
        assert_eq!(
            doc.get("results").unwrap().get("demo.count").and_then(obs::Json::as_f64),
            Some(2.0)
        );
        // Flags land in params.
        assert_eq!(
            doc.get("params").unwrap().get("graph").and_then(obs::Json::as_str),
            Some("g.bin")
        );
    }

    #[test]
    fn metrics_out_writes_a_valid_report() {
        let path = crate::test_dir("telemetry-metrics-out").join("report.json");
        let path_s = path.to_str().unwrap();
        let args = parse(&["stats", "--graph", "g.bin", "--metrics-out", path_s]);
        let tel = RunTelemetry::from_args(&args).unwrap().unwrap();
        {
            let _guard = tel.install();
            let _span = obs::span("demo.stage");
        }
        // No --trace: the command text passes through untouched.
        let out = tel.finish(&args, String::from("report\n")).unwrap();
        assert_eq!(out, "report\n");
        let doc = obs::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        obs::RunReport::validate(&doc).unwrap();
    }
}
