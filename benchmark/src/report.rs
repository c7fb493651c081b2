//! `run`: all five workloads, an untraced and a traced pass each, into one
//! result file. `compare`: two such files against the benchmark's bounds.

use crate::runner::Args;
use crate::spec::{EndToEnd, END_TO_END, PER_LAYER, WORKLOADS};
use crate::util::{ctx, median, nproc, percentile, Res};
use spammass_obs::json::Json;
use std::path::Path;

pub const RESULT_SCHEMA: &str = "spammass.benchmark_result/v1";

/// One workload in driver mode, as a process of its own; returns its
/// result line and its flagged-set fingerprint.
fn drive(args: &Args) -> Res<(Json, String)> {
    let mut cmd = args.command()?;
    if let Some(path) = &args.trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let output = ctx("spawn workload", cmd.output())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!("workload {} ended with {}: {last}", args.workload, output.status));
    }
    let hash = stdout
        .lines()
        .find_map(|l| {
            l.strip_prefix(&format!("info {} flagged_set ", args.workload)).map(str::to_string)
        })
        .unwrap_or_default();
    Ok((Json::parse(last)?, hash))
}

fn metric_values(result: &Json) -> Res<Vec<(String, f64)>> {
    match result.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                Ok((name.clone(), value.ok_or_else(|| format!("metric {name} has no value"))?))
            })
            .collect(),
        _ => Err("result line has no metrics".into()),
    }
}

/// Runs every workload `sets` times untraced and once traced, prints every
/// metric by name with its unit, applies the cross-workload gate, and
/// writes the result file.
pub fn run(seed: u64, seconds: f64, smoke: bool, sets: usize, out: &Path) -> Res<()> {
    let mut workloads = Vec::new();
    let mut hashes = Vec::new();
    let mut failed_total = 0.0;
    for (workload, _) in WORKLOADS {
        let args = |trace: bool| Args {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            smoke,
            work_dir: None,
            trace_out: trace.then(|| out.with_extension(format!("{workload}.trace.jsonl"))),
        };
        let mut end_to_end: Vec<(String, Vec<f64>)> =
            END_TO_END.iter().map(|m| (m.name.to_string(), Vec::new())).collect();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for _ in 0..sets {
            let (result, hash) = drive(&args(false))?;
            for ((_, values), (_, value)) in end_to_end.iter_mut().zip(metric_values(&result)?) {
                values.push(value);
            }
            attempted += result.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            hashes.push((workload, hash));
        }
        let (traced, _) = drive(&args(true))?;
        failed += traced.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        failed_total += failed;
        let per_layer = metric_values(&traced)?;

        // Tracing overhead needs both passes, so it is worked out here.
        let p50 = |values: &[(String, Vec<f64>)]| median(&values[0].1);
        let traced_p50 = per_layer
            .iter()
            .find(|(name, _)| name == "bench.sample_p50_ms")
            .map_or(f64::NAN, |(_, v)| *v);
        let overhead_pct = (traced_p50 / p50(&end_to_end) - 1.0) * 100.0;

        for (m, (_, values)) in END_TO_END.iter().zip(&end_to_end) {
            println!("{workload} {} {:?} {}", m.name, median(values), m.unit);
        }
        println!("{workload} failed_share {:?} ratio", failed / attempted.max(1.0));
        for ((name, value), (_, unit, _)) in per_layer.iter().zip(&PER_LAYER) {
            println!("{workload} {name} {value:?} {unit}");
        }
        println!("{workload} bench.trace_overhead_pct {overhead_pct:?} %");

        workloads.push((
            workload,
            Json::obj([
                (
                    "end_to_end",
                    Json::obj(end_to_end.iter().map(|(n, v)| {
                        (n.as_str(), Json::Arr(v.iter().map(|x| Json::num(*x)).collect()))
                    })),
                ),
                (
                    "per_layer",
                    Json::obj(per_layer.iter().map(|(n, v)| (n.as_str(), Json::num(*v)))),
                ),
                ("attempted", Json::num(attempted)),
                ("failed", Json::num(failed)),
                ("trace_overhead_pct", Json::num(overhead_pct)),
            ]),
        ));
    }

    // The two engines must agree on who is spam.
    let hash_of = |w: &str| hashes.iter().find(|(name, _)| *name == w).map(|(_, h)| h.clone());
    let (resident, streamed) = (hash_of("batch_resident"), hash_of("batch_streamed"));
    let engines_agree = resident.is_some() && resident == streamed;
    println!("gate flagged_set_identical {engines_agree} ({resident:?} vs {streamed:?})");

    let doc = Json::obj([
        ("schema", Json::str(RESULT_SCHEMA)),
        ("seed", Json::uint(seed)),
        ("seconds", Json::num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("host.nproc", Json::uint(nproc() as u64)),
        ("claim", Json::Null),
        ("workloads", Json::obj(workloads)),
    ]);
    ctx("write result file", std::fs::write(out, doc.render() + "\n"))?;
    if !engines_agree {
        return Err("batch_resident and batch_streamed flagged different hosts".into());
    }
    if failed_total > 0.0 {
        return Err(format!("{failed_total} operations failed"));
    }
    Ok(())
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Worse than the bound, but the runs of one side spread wider than
    /// the bound, so the difference cannot be told from noise.
    Unresolved,
}

/// Interquartile range over the median; 0 for fewer than two values.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    (percentile(values, 0.75) - percentile(values, 0.25)) / median(values).abs()
}

/// Judges `new` against `base` for one metric: `(share worse, verdict)`.
/// The share is relative to the base median; positive means worse.
pub fn judge(metric: &EndToEnd, base: &[f64], new: &[f64]) -> (f64, Verdict) {
    let (b, n) = (median(base), median(new));
    let worse = if metric.better == "lower" { (n - b) / b.abs() } else { (b - n) / b.abs() };
    // NaN (a zero base) must not pass as fine.
    let verdict = if worse <= metric.bound {
        Verdict::Ok
    } else if spread(base) > metric.bound || spread(new) > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    };
    (worse, verdict)
}

fn load(path: &Path) -> Res<Json> {
    let text = ctx(&format!("read {}", path.display()), std::fs::read_to_string(path))?;
    let doc = Json::parse(&text)?;
    if doc.get("schema").and_then(Json::as_str) != Some(RESULT_SCHEMA) {
        return Err(format!("{} is not a {RESULT_SCHEMA} file", path.display()));
    }
    Ok(doc)
}

fn values_of(doc: &Json, workload: &str, metric: &str) -> Res<Vec<f64>> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect::<Vec<_>>())
        .filter(|v| !v.is_empty())
        .ok_or_else(|| format!("no {workload} {metric} in the file"))
}

/// Prints base, new, ratio and verdict per workload × end-to-end metric;
/// `Ok(true)` when nothing regressed.
pub fn compare(base_path: &Path, new_path: &Path) -> Res<bool> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    let cores = |doc: &Json| doc.get("host.nproc").and_then(Json::as_f64);
    if cores(&base) != cores(&new) {
        return Err(format!(
            "refusing to compare: host.nproc {:?} vs {:?} — results from different hosts",
            cores(&base),
            cores(&new)
        ));
    }
    let mut clean = true;
    println!(
        "{:<15} {:<18} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base", "worse"
    );
    for (workload, _) in WORKLOADS {
        for metric in &END_TO_END {
            let b = values_of(&base, workload, metric.name)?;
            let n = values_of(&new, workload, metric.name)?;
            let (worse, verdict) = judge(metric, &b, &n);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{workload:<15} {:<18} {:>14.6} {:>14.6} {:>9.4} {:>+7.2}%  {}",
                metric.name,
                median(&b),
                median(&n),
                median(&n) / median(&b),
                worse * 100.0,
                match verdict {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Regressed => format!("regressed (bound {}%)", metric.bound * 100.0),
                    Verdict::Unresolved =>
                        format!("unresolved (spread above the {}% bound)", metric.bound * 100.0),
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd { name: "t_ms", unit: "ms", better: "lower", bound: 0.10 };
    const HIGHER: EndToEnd = EndToEnd { name: "qps", unit: "1/s", better: "higher", bound: 0.10 };

    #[test]
    fn within_the_bound_is_ok_in_both_directions() {
        assert_eq!(judge(&LOWER, &[100.0], &[109.0]).1, Verdict::Ok);
        assert_eq!(judge(&LOWER, &[100.0], &[50.0]).1, Verdict::Ok);
        assert_eq!(judge(&HIGHER, &[100.0], &[91.0]).1, Verdict::Ok);
        assert_eq!(judge(&HIGHER, &[100.0], &[300.0]).1, Verdict::Ok);
    }

    #[test]
    fn beyond_the_bound_regresses() {
        let (worse, verdict) = judge(&LOWER, &[100.0], &[111.0]);
        assert!((worse - 0.11).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Regressed);
        assert_eq!(judge(&HIGHER, &[100.0], &[89.0]).1, Verdict::Regressed);
        // Medians of several runs decide, not single values.
        assert_eq!(
            judge(&LOWER, &[99.0, 100.0, 101.0], &[120.0, 121.0, 122.0]).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [80.0, 100.0, 100.0, 125.0];
        assert!(spread(&noisy) > 0.10);
        assert_eq!(judge(&LOWER, &noisy, &[115.0, 116.0]).1, Verdict::Unresolved);
        assert_eq!(judge(&LOWER, &[100.0, 100.5], &[115.0, 116.0]).1, Verdict::Regressed);
    }

    #[test]
    fn a_zero_base_does_not_pass() {
        assert_ne!(judge(&LOWER, &[0.0], &[1.0]).1, Verdict::Ok);
    }
}
