//! End-to-end telemetry: a full `estimate` run under `--trace json
//! --metrics-out` must produce a run report that round-trips through the
//! JSON layer, carries the documented sections, and agrees with an
//! independent collector of the same pipeline.

use spammass_cli::args::ParsedArgs;
use spammass_cli::commands::dispatch;
use spammass_graph::{io, GraphBuilder};
use spammass_obs as obs;
use spammass_obs::{Json, RunReport, SpanNode};
use std::fs;
use std::path::PathBuf;

/// Fixture: a star spam farm (1..=12 -> 0, backlinked) plus a good pair
/// with node 14 in the core — small enough to solve instantly, rich
/// enough to exercise ingest, both PageRank runs, and mass estimation.
/// Written to a directory owned by `test` alone: the tests here run on
/// parallel threads, and a shared `g.bin` is re-written under readers.
fn fixture(test: &str) -> (PathBuf, PathBuf) {
    let mut edges: Vec<(u32, u32)> = (1..=12).flat_map(|i| [(i, 0), (0, i)]).collect();
    edges.push((13, 14));
    edges.push((14, 13));
    let g = GraphBuilder::from_edges(15, &edges);
    let dir =
        std::env::temp_dir().join(format!("spammass-cli-run-report-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.bin");
    fs::write(&graph, io::graph_to_bytes_v3(&g)).unwrap();
    let core = dir.join("core.txt");
    fs::write(&core, "14\n").unwrap();
    (graph, core)
}

fn parse(args: &[String]) -> ParsedArgs {
    ParsedArgs::parse(args).unwrap()
}

fn walk(nodes: &[SpanNode], f: &mut impl FnMut(&SpanNode)) {
    for node in nodes {
        f(node);
        walk(&node.children, f);
    }
}

#[test]
fn estimate_run_report_round_trips_with_required_sections() {
    let (graph, core) = fixture("round-trip");
    let out = graph.with_file_name("report.json");
    let argv: Vec<String> = [
        "estimate",
        "--graph",
        graph.to_str().unwrap(),
        "--core",
        core.to_str().unwrap(),
        "--trace",
        "json",
        "--metrics-out",
        out.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let text = dispatch(&parse(&argv)).unwrap();

    // The human-readable summary still leads the output; the JSON-lines
    // trace follows and every line parses.
    assert!(text.contains("core: 1 hosts"), "{text}");
    let json_lines: Vec<&str> = text.lines().filter(|l| l.starts_with('{')).collect();
    assert!(!json_lines.is_empty(), "no trace events in {text}");
    for line in &json_lines {
        Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }

    // The metrics file round-trips and validates against the schema.
    let raw = fs::read_to_string(&out).unwrap();
    let doc = Json::parse(&raw).unwrap();
    RunReport::validate(&doc).unwrap();
    for key in RunReport::REQUIRED_KEYS {
        assert!(doc.get(key).is_some(), "missing {key}");
    }
    assert_eq!(doc.get("command").and_then(Json::as_str), Some("estimate"));

    // Ingest counters, per-stage timings, and mass-distribution stats all
    // made it into the document.
    let metrics = doc.get("metrics").unwrap();
    let edge_counter = metrics.get("graph.ingest.edges").unwrap();
    assert_eq!(edge_counter.get("kind").and_then(Json::as_str), Some("counter"));
    assert_eq!(edge_counter.get("value").and_then(Json::as_f64), Some(26.0));
    assert!(metrics.get("pagerank.residual").is_some(), "residual histogram missing");
    assert!(metrics.get("estimate.relative_mass").is_some(), "mass histogram missing");
    let stages = doc.get("stages").and_then(Json::as_arr).unwrap();
    let mut paths = Vec::new();
    for stage in stages {
        collect_paths(stage, &mut paths);
    }
    for expected in ["graph.ingest.image", "estimate", "estimate.pagerank_batch"] {
        assert!(paths.iter().any(|p| p == expected), "no stage {expected} in {paths:?}");
    }

    // Scalar metrics surface as headline results.
    let results = doc.get("results").unwrap();
    let anomalies = results.get("estimate.anomalies").and_then(Json::as_f64).unwrap();
    assert!(anomalies >= 0.0, "anomaly count is a count: {anomalies}");
    assert!(results.get("estimate.coverage_ratio").and_then(Json::as_f64).is_some());
}

fn collect_paths(stage: &Json, out: &mut Vec<String>) {
    if let Some(p) = stage.get("path").and_then(Json::as_str) {
        out.push(p.to_string());
    }
    if let Some(children) = stage.get("children").and_then(Json::as_arr) {
        for child in children {
            collect_paths(child, out);
        }
    }
}

#[test]
fn recorder_agrees_and_span_totals_cover_their_children() {
    let (graph, core) = fixture("recorder-agrees");
    let argv: Vec<String> =
        ["estimate", "--graph", graph.to_str().unwrap(), "--core", core.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let args = parse(&argv);

    // Run the same pipeline under a collector we control.
    let collector = obs::Collector::builder().build();
    {
        let _guard = collector.install();
        dispatch(&args).unwrap();
    }
    let report = RunReport::build("estimate", &collector);

    // A parent span's wall clock must cover the sum of its children.
    let mut checked = 0;
    walk(&report.stages, &mut |node| {
        if !node.children.is_empty() {
            checked += 1;
            assert!(
                node.record.elapsed_ns >= node.children_elapsed_ns(),
                "{}: parent {}ns < children {}ns",
                node.record.path,
                node.record.elapsed_ns,
                node.children_elapsed_ns()
            );
        }
    });
    assert!(checked >= 2, "expected nested stages, got {checked} parents");

    // The report's stage forest is exactly the collector's span tree.
    let tree = collector.span_tree();
    assert_eq!(report.stages.len(), tree.len());
    let (mut report_paths, mut collector_paths) = (Vec::new(), Vec::new());
    walk(&report.stages, &mut |n| report_paths.push(n.record.path.clone()));
    walk(&tree, &mut |n| collector_paths.push(n.record.path.clone()));
    assert_eq!(report_paths, collector_paths);

    // And the report's metrics are the collector's registry, verbatim.
    assert_eq!(report.metrics.len(), collector.metrics_snapshot().len());
}

#[test]
fn default_output_is_byte_identical_without_telemetry_flags() {
    let (graph, core) = fixture("byte-identical");
    let argv: Vec<String> =
        ["estimate", "--graph", graph.to_str().unwrap(), "--core", core.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let plain = dispatch(&parse(&argv)).unwrap();

    let mut traced_argv = argv.clone();
    traced_argv.extend(["--trace".to_string(), "pretty".to_string()]);
    let traced = dispatch(&parse(&traced_argv)).unwrap();

    assert!(traced.starts_with(&plain), "telemetry must only append");
    assert!(traced.len() > plain.len(), "pretty trace should add the span tree");
    assert!(traced[plain.len()..].contains("estimate"), "span tree names stages");

    // Second plain run: identical bytes (no hidden telemetry state).
    assert_eq!(dispatch(&parse(&argv)).unwrap(), plain);
}
