//! End-to-end test of the benchmark itself: a full `run --smoke` (20k-host
//! inputs, half-second phases) must emit every workload and metric that
//! `BENCHMARK.json` names, exactly once each, and its traced spans must
//! account for each repetition's wall clock.

use spammass_obs::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const BENCHMARK: &str = env!("CARGO_BIN_EXE_benchmark");

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(spec: &Json, section: &str) -> Vec<String> {
    let rows = spec.get(section).and_then(Json::as_arr).expect("section");
    rows.iter().map(|r| r.get("name").and_then(Json::as_str).expect("name").to_string()).collect()
}

fn keys(doc: &Json) -> Vec<String> {
    match doc {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn smoke_run_emits_the_whole_catalog_and_spans_tile() {
    let spec = spec();
    let workloads = names(&spec, "workloads");
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    let dir = scratch("smoke-run");
    let out = dir.join("smoke.json");

    let started = std::time::Instant::now();
    let run = Command::new(BENCHMARK)
        .args(["run", "--smoke", "--seed", "1", "--out"])
        .arg(&out)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    // The target is 15 s on an idle 2-core box; leave room for a busy one.
    assert!(started.elapsed().as_secs() < 45, "smoke run took {:?}", started.elapsed());
    assert!(stdout.contains("gate flagged_set_identical true"), "{stdout}");

    // Every metric is printed by name, with a unit, once per workload.
    let mut printed: BTreeMap<(String, String), usize> = BTreeMap::new();
    for line in stdout.lines().filter(|l| !l.starts_with("gate ")) {
        let words: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(words.len(), 4, "want `workload metric value unit`: {line}");
        words[2].parse::<f64>().unwrap_or_else(|_| panic!("value is not a number: {line}"));
        *printed.entry((words[0].to_string(), words[1].to_string())).or_default() += 1;
    }
    for w in &workloads {
        for m in end_to_end.iter().chain(&per_layer) {
            assert_eq!(printed.get(&(w.clone(), m.clone())), Some(&1), "{w} {m} printed once");
        }
    }

    let result = Json::parse(&std::fs::read_to_string(&out).expect("result file")).expect("JSON");
    assert_eq!(keys(result.get("workloads").expect("workloads")), workloads);
    assert_eq!(result.get("claim"), Some(&Json::Null));
    for w in &workloads {
        let row = result.get("workloads").and_then(|all| all.get(w)).expect("workload row");
        assert_eq!(keys(row.get("end_to_end").expect("end_to_end")), end_to_end, "{w}");
        assert_eq!(keys(row.get("per_layer").expect("per_layer")), per_layer, "{w}");
        assert_eq!(row.get("failed").and_then(Json::as_f64), Some(0.0), "{w} failed operations");
        for m in &end_to_end {
            let values = row
                .get("end_to_end")
                .and_then(|e| e.get(m))
                .and_then(Json::as_arr)
                .expect("values");
            assert_eq!(values.len(), 1);
            assert!(values[0].as_f64().is_some_and(|v| v > 0.0), "{w} {m} must never be 0");
        }

        // Spans of one repetition tile its wall clock within 2 %.
        let trace =
            std::fs::read_to_string(out.with_extension(format!("{w}.trace.jsonl"))).expect("trace");
        let spans: Vec<Json> = trace.lines().map(|l| Json::parse(l).expect("span line")).collect();
        assert!(!spans.is_empty(), "{w} traced no spans");
        let field = |s: &Json, key: &str| s.get(key).and_then(Json::as_f64);
        let length =
            |s: &Json| field(s, "end_ns").expect("end") - field(s, "start_ns").expect("start");
        let roots: Vec<&Json> =
            spans.iter().filter(|s| s.get("span").and_then(Json::as_str) == Some("rep")).collect();
        if w.starts_with("serve_") {
            let samples =
                row.get("per_layer").and_then(|p| p.get("bench.samples")).and_then(Json::as_f64);
            let pipelined = spans
                .iter()
                .filter(|s| s.get("span").and_then(Json::as_str) == Some("serve.server.pipelined"));
            assert_eq!(
                Some(pipelined.count() as f64),
                samples,
                "{w}: one span per closed-loop request"
            );
        } else {
            assert!(!roots.is_empty(), "{w} has no repetition spans");
        }
        for root in roots {
            let id = field(root, "id");
            let covered: f64 = spans.iter().filter(|s| field(s, "parent") == id).map(length).sum();
            let gap = (length(root) - covered) / length(root);
            assert!(
                (0.0..0.02).contains(&gap),
                "{w}: spans leave {:.2}% of a repetition uncovered",
                gap * 100.0
            );
        }
    }

    // A file compares clean against itself, and not across hosts.
    let compare = |a: &Path, b: &Path| {
        Command::new(BENCHMARK).arg("compare").args([a, b]).output().expect("compare")
    };
    assert!(compare(&out, &out).status.success());
    let other_host = dir.join("other-host.json");
    let text = std::fs::read_to_string(&out).expect("result file");
    let cores = result.get("host.nproc").and_then(Json::as_f64).expect("host.nproc");
    let moved = text.replace(&format!("\"host.nproc\":{cores:?}"), "\"host.nproc\":999.0");
    assert_ne!(moved, text);
    std::fs::write(&other_host, moved).expect("write");
    let refused = compare(&out, &other_host);
    assert!(!refused.status.success());
    assert!(String::from_utf8_lossy(&refused.stderr).contains("host.nproc"));

    // A regression beyond the bound fails the comparison.
    let slower = dir.join("slower.json");
    let doc = text.replacen(
        "\"latency_p50_ms\":[",
        "\"latency_p50_ms\":[1000000.0,1000000.0,1000000.0,1000000.0,",
        1,
    );
    assert_ne!(doc, text);
    std::fs::write(&slower, doc).expect("write");
    let regressed = compare(&out, &slower);
    assert!(!regressed.status.success());
    assert!(String::from_utf8_lossy(&regressed.stdout).contains("regressed"));
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn driver_mode_prints_the_contract_line_last() {
    let spec = spec();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let run = Command::new(BENCHMARK)
            .args([
                "--workload",
                "serve_scan",
                "--seed",
                "7",
                "--seconds",
                "0.5",
                "--trace",
                trace,
                "--smoke",
            ])
            .output()
            .expect("benchmark runs");
        assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
        let stdout = String::from_utf8_lossy(&run.stdout);
        let last = Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
        assert_eq!(keys(&last), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert!(last.get("attempted").and_then(Json::as_f64).is_some_and(|n| n >= 1.0));
        assert_eq!(keys(last.get("metrics").expect("metrics")), names(&spec, section));
        for (name, metric) in match last.get("metrics") {
            Some(Json::Obj(fields)) => fields,
            _ => unreachable!(),
        } {
            assert_eq!(keys(metric), ["value", "unit"], "{name}");
        }
    }
}

#[test]
fn an_unknown_workload_is_an_error_without_a_result() {
    let run = Command::new(BENCHMARK)
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark runs");
    assert!(!run.status.success());
    assert!(run.stdout.is_empty());
}
