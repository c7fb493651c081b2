//! `spammass bench-diff` — compare two `BENCH_*.json` documents and
//! report per-bench median deltas.
//!
//! `scripts/bench.sh` writes machine-readable benchmark medians; this
//! subcommand turns two such files (an old baseline and a new run) into
//! a human-readable delta table. A bench whose median regressed by more
//! than `--threshold` percent fails the command (exit nonzero) unless
//! `--report-only true`, which is how CI runs it: the table lands in the
//! log without coupling the gate to the noise floor of a shared runner.

use crate::args::ParsedArgs;
use crate::CliError;
use spammass_obs as obs;
use std::fmt::Write as _;
use std::path::Path;

/// One bench entry: name and median nanoseconds.
type Bench = (String, f64);

fn load_benches(path: &Path) -> Result<Vec<Bench>, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        CliError::Io(std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    })?;
    let doc = obs::Json::parse(&text)
        .map_err(|e| CliError::Format(format!("{}: {e}", path.display())))?;
    let benches = doc
        .get("benches")
        .and_then(obs::Json::as_arr)
        .ok_or_else(|| CliError::Format(format!("{}: no \"benches\" array", path.display())))?;
    let mut out = Vec::new();
    for b in benches {
        let name = b
            .get("name")
            .and_then(obs::Json::as_str)
            .ok_or_else(|| CliError::Format(format!("{}: bench without a name", path.display())))?;
        let median = b.get("median_ns").and_then(obs::Json::as_f64).ok_or_else(|| {
            CliError::Format(format!("{}: bench {name:?} without median_ns", path.display()))
        })?;
        out.push((name.to_string(), median));
    }
    Ok(out)
}

/// Runs the subcommand.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&["old", "new", "threshold", "report-only", "trace", "metrics-out"])?;
    let threshold: f64 = args.parsed_or("threshold", 10.0)?;
    if !threshold.is_finite() || threshold < 0.0 {
        return Err(CliError::Usage(format!("--threshold {threshold} must be >= 0")));
    }
    let report_only: bool = args.parsed_or("report-only", false)?;
    let old_path = Path::new(args.required("old")?);
    let new_path = Path::new(args.required("new")?);
    let old = load_benches(old_path)?;
    let new = load_benches(new_path)?;

    let width = new.iter().chain(&old).map(|(n, _)| n.len()).max().unwrap_or(5).max(5);
    let mut out = String::new();
    let _ = writeln!(out, "{:<width$} {:>10} {:>10} {:>8}", "bench", "old", "new", "delta");
    let mut regressions = Vec::new();
    for (name, new_ns) in &new {
        let Some((_, old_ns)) = old.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(
                out,
                "{name:<width$} {:>10} {:>10} {:>8}",
                "-",
                obs::format_ns(*new_ns as u64),
                "new"
            );
            continue;
        };
        let delta_pct = if *old_ns > 0.0 { (new_ns - old_ns) / old_ns * 100.0 } else { 0.0 };
        let marker = if delta_pct > threshold { " REGRESSED" } else { "" };
        let _ = writeln!(
            out,
            "{name:<width$} {:>10} {:>10} {:>+7.1}%{marker}",
            obs::format_ns(*old_ns as u64),
            obs::format_ns(*new_ns as u64),
            delta_pct
        );
        if delta_pct > threshold {
            regressions.push(format!("{name} {delta_pct:+.1}%"));
        }
    }
    for (name, _) in &old {
        if !new.iter().any(|(n, _)| n == name) {
            let _ = writeln!(out, "{name:<width$} {:>10} {:>10} {:>8}", "", "-", "removed");
        }
    }
    if regressions.is_empty() {
        let _ = writeln!(out, "no regressions beyond {threshold}%");
    } else {
        let _ = writeln!(
            out,
            "{} bench(es) regressed beyond {threshold}%: {}",
            regressions.len(),
            regressions.join(", ")
        );
        if !report_only {
            return Err(CliError::Compute(format!(
                "bench regressions beyond {threshold}%: {}",
                regressions.join(", ")
            )));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn write_bench(name: &str, entries: &[(&str, u64)]) -> std::path::PathBuf {
        let dir = crate::test_dir(&format!("bench-diff-{name}"));
        let mut doc = String::from("{\n  \"schema\": \"spammass.bench/v1\",\n  \"benches\": [\n");
        for (i, (bench, ns)) in entries.iter().enumerate() {
            let comma = if i + 1 == entries.len() { "" } else { "," };
            doc.push_str(&format!(
                "    {{\"name\":\"{bench}\",\"median_ns\":{ns},\"samples\":5}}{comma}\n"
            ));
        }
        doc.push_str("  ]\n}\n");
        let path = dir.join(name);
        fs::write(&path, doc).unwrap();
        path
    }

    fn parse(args: &[&str]) -> ParsedArgs {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        ParsedArgs::parse(&v).unwrap()
    }

    #[test]
    fn reports_deltas_and_passes_within_threshold() {
        let old = write_bench("old_ok.json", &[("solve/a", 100_000_000), ("solve/b", 50_000)]);
        let new = write_bench("new_ok.json", &[("solve/a", 104_000_000), ("solve/b", 50_000)]);
        let args =
            parse(&["bench-diff", "--old", old.to_str().unwrap(), "--new", new.to_str().unwrap()]);
        let out = run(&args).unwrap();
        assert!(out.contains("solve/a"), "{out}");
        assert!(out.contains("+4.0%"), "{out}");
        assert!(out.contains("no regressions beyond 10%"), "{out}");
    }

    #[test]
    fn regression_beyond_threshold_fails() {
        let old = write_bench("old_reg.json", &[("solve/a", 100_000_000)]);
        let new = write_bench("new_reg.json", &[("solve/a", 130_000_000)]);
        let args = parse(&[
            "bench-diff",
            "--old",
            old.to_str().unwrap(),
            "--new",
            new.to_str().unwrap(),
            "--threshold",
            "20",
        ]);
        match run(&args) {
            Err(CliError::Compute(msg)) => assert!(msg.contains("solve/a"), "{msg}"),
            other => panic!("expected a compute error, got {other:?}"),
        }
    }

    #[test]
    fn report_only_downgrades_regressions_to_text() {
        let old = write_bench("old_ro.json", &[("solve/a", 100_000_000)]);
        let new = write_bench("new_ro.json", &[("solve/a", 200_000_000)]);
        let args = parse(&[
            "bench-diff",
            "--old",
            old.to_str().unwrap(),
            "--new",
            new.to_str().unwrap(),
            "--report-only",
            "true",
        ]);
        let out = run(&args).unwrap();
        assert!(out.contains("REGRESSED"), "{out}");
        assert!(out.contains("1 bench(es) regressed"), "{out}");
    }

    #[test]
    fn added_and_removed_benches_are_listed() {
        let old = write_bench("old_ar.json", &[("solve/gone", 1_000)]);
        let new = write_bench("new_ar.json", &[("solve/fresh", 2_000)]);
        let args =
            parse(&["bench-diff", "--old", old.to_str().unwrap(), "--new", new.to_str().unwrap()]);
        let out = run(&args).unwrap();
        assert!(out.contains("solve/fresh"), "{out}");
        assert!(out.contains("new"), "{out}");
        assert!(out.contains("solve/gone"), "{out}");
        assert!(out.contains("removed"), "{out}");
    }

    #[test]
    fn missing_benches_array_is_a_format_error() {
        let path = crate::test_dir("bench-diff-missing-array").join("bad.json");
        fs::write(&path, "{\"schema\": \"x\"}").unwrap();
        let args = parse(&[
            "bench-diff",
            "--old",
            path.to_str().unwrap(),
            "--new",
            path.to_str().unwrap(),
        ]);
        assert!(matches!(run(&args), Err(CliError::Format(_))));
    }
}
