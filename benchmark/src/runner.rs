//! One workload, start to finish: set-up children, the measured child,
//! checks, and the result line.
//!
//! Every phase is a re-exec of this binary in a process of its own under a
//! private work directory, so `peak_rss_mb` and the page-cache state belong
//! to the workload alone, and nothing is shared through well-known `/tmp`
//! names. The work directory lives next to the executable — inside the
//! build directory of the checkout — and is removed on success.

use crate::common::{Inputs, Measured};
use crate::serve::Mix;
use crate::spec::{sizes, END_TO_END, PER_LAYER, WORKLOADS};
use crate::trace::Tracer;
use crate::util::{ctx, max, median, nproc, quoted, Layers, Res};
use crate::{batch, refresh, serve, setup};
use spammass_obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Marks the one line of a child's stdout that carries its result.
const RESULT_TAG: &str = "BENCH_CHILD_RESULT ";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub work_dir: Option<PathBuf>,
    /// Where to keep the span file of a traced run.
    pub trace_out: Option<PathBuf>,
}

impl Args {
    /// This binary again, for the same workload, seed, length and mode.
    pub fn command(&self) -> Res<Command> {
        let mut cmd = Command::new(ctx("find own executable", std::env::current_exe())?);
        cmd.args(["--workload", &self.workload, "--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if self.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if self.smoke {
            cmd.arg("--smoke");
        }
        Ok(cmd)
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`: the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub flagged_hash: String,
    pub failures: Vec<String>,
}

impl Outcome {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("{}: {{\"value\": {value:?}, \"unit\": {}}}", quoted(name), quoted(unit))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn default_work_dir(workload: &str) -> Res<PathBuf> {
    let exe = ctx("find own executable", std::env::current_exe())?;
    let dir = exe.parent().ok_or("executable has no parent directory")?;
    Ok(dir.join("bench-work").join(format!("{workload}-{}", std::process::id())))
}

/// Runs `phase` of the workload in a child and returns its result document.
fn run_child(args: &Args, phase: &str, work: &Path) -> Res<Json> {
    let mut cmd = args.command()?;
    let output = ctx("spawn child", cmd.args(["--phase", phase, "--work-dir"]).arg(work).output())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{phase} child ended with {}", output.status));
    }
    let line =
        stdout.lines().find_map(|l| l.strip_prefix(RESULT_TAG)).ok_or("child printed no result")?;
    Json::parse(line)
}

fn layers_of(doc: &Json) -> Layers {
    match doc.get("layers") {
        Some(Json::Obj(fields)) => {
            fields.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect()
        }
        _ => Layers::new(),
    }
}

fn field(doc: &Json, key: &str) -> Res<f64> {
    doc.get(key).and_then(Json::as_f64).ok_or_else(|| format!("child result has no {key}"))
}

/// The driver entry: set up (several times, median), measure, report.
pub fn run_workload(args: &Args) -> Res<Outcome> {
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    let work = match &args.work_dir {
        Some(dir) => dir.clone(),
        None => default_work_dir(&args.workload)?,
    };
    let _ = std::fs::remove_dir_all(&work);
    ctx("create work dir", std::fs::create_dir_all(&work))?;

    let mut setup_s = Vec::new();
    let mut layers = Layers::new();
    for _ in 0..sizes(args.smoke).setup_reps {
        let _ = std::fs::remove_dir_all(work.join("input"));
        let doc = run_child(args, "setup", &work)?;
        layers = layers_of(&doc);
        setup_s.push(*layers.get("setup_s").ok_or("set-up child reported no setup_s")?);
    }
    let measured = run_child(args, "measure", &work)?;
    layers.extend(layers_of(&measured));
    layers.insert("host.nproc".into(), nproc() as f64);
    layers.insert("bench.samples".into(), field(&measured, "samples")?);
    layers.insert("bench.sample_p50_ms".into(), field(&measured, "p50_ms")?);
    layers.insert("bench.sample_max_ms".into(), field(&measured, "max_ms")?);

    let attempted = field(&measured, "attempted")? as u64;
    let failed = field(&measured, "failed")? as u64;
    let failures: Vec<String> = measured
        .get("failures")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(|f| f.as_str().map(str::to_string)).collect())
        .unwrap_or_default();
    let flagged_hash =
        measured.get("flagged_hash").and_then(Json::as_str).unwrap_or_default().to_string();

    let metrics = if args.trace {
        if let Some(unknown) =
            layers.keys().find(|k| !PER_LAYER.iter().any(|m| m.0 == *k) && *k != "setup_s")
        {
            return Err(format!("layer metric {unknown} is not in the catalog"));
        }
        // A layer this workload does not exercise reads 0.
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, layers.get(*name).copied().unwrap_or(0.0), *unit))
            .collect()
    } else {
        let value = |name: &str| -> Res<f64> {
            match name {
                "setup_s" => Ok(median(&setup_s)),
                "latency_p50_ms" => field(&measured, "p50_ms"),
                "throughput_per_s" => field(&measured, "throughput_per_s"),
                "peak_rss_mb" => field(&measured, "peak_rss_mb"),
                "flagged_precision" => field(&measured, "precision"),
                "flagged_recall" => field(&measured, "recall"),
                other => Err(format!("no source for end-to-end metric {other}")),
            }
        };
        END_TO_END.iter().map(|m| Ok((m.name, value(m.name)?, m.unit))).collect::<Res<Vec<_>>>()?
    };
    if let (true, Some(to)) = (args.trace, &args.trace_out) {
        ctx("keep trace file", std::fs::copy(work.join("trace.jsonl"), to))?;
    }
    let correct = failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    if correct {
        ctx("remove work dir", std::fs::remove_dir_all(&work))?;
    } else {
        eprintln!("benchmark: work directory kept for inspection: {}", work.display());
    }
    Ok(Outcome {
        workload: args.workload.clone(),
        correct,
        attempted,
        failed,
        metrics,
        flagged_hash,
        failures,
    })
}

/// A child phase: does the work and prints one tagged result line.
pub fn run_phase(phase: &str, args: &Args) -> Res<()> {
    let work = args.work_dir.clone().ok_or("--phase needs --work-dir")?;
    let inputs = Inputs { dir: work.join("input") };
    let sizes = sizes(args.smoke);
    let doc = match phase {
        "setup" => {
            ctx("create input dir", std::fs::create_dir_all(&inputs.dir))?;
            let layers = setup::run(&args.workload, args.seed, &sizes, &inputs)?;
            Json::obj([("layers", layers_json(&layers))])
        }
        "measure" => {
            let mut tracer = Tracer::new(args.trace);
            let (seed, seconds) = (args.seed, args.seconds);
            let m = match args.workload.as_str() {
                "batch_resident" => {
                    batch::resident(seed, seconds, &sizes, &inputs, &work, &mut tracer)?
                }
                "batch_streamed" => batch::streamed(seconds, &inputs, &work, &mut tracer)?,
                "refresh" => refresh::run(seed, seconds, &inputs, &work, &mut tracer)?,
                "serve_point" => {
                    serve::run(Mix::Point, seed, seconds, &sizes, &inputs, &mut tracer)?
                }
                "serve_scan" => serve::run(Mix::Scan, seed, seconds, &sizes, &inputs, &mut tracer)?,
                other => return Err(format!("unknown workload {other:?}")),
            };
            if args.trace {
                tracer.write_jsonl(&args.workload, &work.join("trace.jsonl"))?;
            }
            measured_json(&m)
        }
        other => return Err(format!("unknown phase {other:?}")),
    };
    println!("{RESULT_TAG}{}", doc.render());
    Ok(())
}

fn layers_json(layers: &Layers) -> Json {
    Json::obj(layers.iter().map(|(k, v)| (k.as_str(), Json::num(*v))))
}

fn measured_json(m: &Measured) -> Json {
    let finite: Vec<f64> = m.samples_ms.iter().copied().filter(|v| v.is_finite()).collect();
    Json::obj([
        // A failed request counts as beyond any limit: if half fail, the
        // median is unbounded and the run is reported as incorrect.
        ("p50_ms", Json::num(median(&m.samples_ms).min(1e12))),
        ("max_ms", Json::num(max(&finite))),
        ("samples", Json::uint(m.samples_ms.len() as u64)),
        ("throughput_per_s", Json::num(m.throughput_per_s)),
        ("attempted", Json::uint(m.attempted)),
        ("failed", Json::uint(m.failed)),
        ("peak_rss_mb", Json::num(m.peak_rss_mb)),
        ("precision", Json::num(m.precision)),
        ("recall", Json::num(m.recall)),
        ("flagged_hash", Json::str(format!("{:016x}:{}", m.flagged_hash, m.flagged))),
        ("layers", layers_json(&m.layers)),
        ("failures", Json::Arr(m.failures.iter().map(Json::str).collect())),
    ])
}
