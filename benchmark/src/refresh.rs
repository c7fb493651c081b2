//! `refresh`: how long until a crawl delta is visible to a query.
//!
//! An in-process daemon tails a journal. Per step: durable append →
//! `Server::reload_now()` (journal read → lenient state load → warm update
//! → crash-safe publish → snapshot load → swap) → one `/score` that must
//! answer from the new generation. The background poll is set to an hour
//! so the explicit reload is the only swap trigger, as `scripts/ci.sh`
//! does.

use crate::common::{
    busy_throughput, generation_tag, quality, schema_tag, start_server, tagged_ok, Inputs,
    Measured, Truth, DAMPING, DETECTOR, GAMMA,
};
use crate::load::Client;
use crate::trace::Tracer;
use crate::util::{ctx, dir_mb, median, peak_rss_mb, Layers, Res, Rng};
use spammass_core::detector::detect;
use spammass_core::estimate::{EstimatorConfig, MassEstimator};
use spammass_delta::{append_to_file, read_journal_with, DeltaRecord, GraphDelta, StateDir};
use spammass_graph::io::ReadOptions;
use spammass_serve::service::SCORE_SCHEMA;
use spammass_serve::Snapshot;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

fn read_steps(path: &Path) -> Res<Vec<Vec<DeltaRecord>>> {
    let data = ctx("read evolve journal", std::fs::read(path))?;
    let (steps, report) =
        ctx("parse evolve journal", read_journal_with(&data, &ReadOptions::default()))?;
    if !report.is_clean() {
        return Err("generated journal does not read back clean".into());
    }
    Ok(steps)
}

pub fn run(
    seed: u64,
    seconds: f64,
    inputs: &Inputs,
    work: &Path,
    tracer: &mut Tracer,
) -> Res<Measured> {
    let mut out = Measured::default();
    let steps = read_steps(&inputs.evolve())?;
    let state = StateDir::new(inputs.state());
    let journal = work.join("crawl.dlt");
    let server = start_server(&inputs.state(), Some(journal.clone()), Some(3600))?;
    let mut client = Client::connect(server.local_addr())?;
    let mut rng = Rng::new(seed ^ 0x5245_4652_4553_4821); // "REFRESH!"
    let score_tag = schema_tag(SCORE_SCHEMA);
    let base_nodes =
        ctx("load generation 1", Snapshot::load(&state, &DETECTOR, DAMPING))?.node_count();

    let mut probes = Probes::default();
    let mut generation = 1u64;
    let mut done = 0usize;
    let started = Instant::now();
    while done < steps.len() && started.elapsed().as_secs_f64() < seconds {
        let records = &steps[done];
        if tracer.on() {
            probes.step(&state, records, &work.join("probe-state"))?;
        }
        let node = rng.below(base_nodes as u64);
        tracer.set_rep(done as u32);
        let t0 = Instant::now();
        let root = tracer.begin("rep");
        let span = tracer.begin("delta.journal.append");
        let appended = append_to_file(&journal, std::slice::from_ref(records));
        tracer.count(span, "records", records.len() as f64);
        tracer.end(span);
        let swapped = tracer.time("serve.server.reload", || server.reload_now());
        let span = tracer.begin("serve.server.first_query");
        let answer = client
            .get(&format!("/score?node={node}"))
            .map_err(|e| e.to_string())
            .and_then(|(status, body)| {
                tagged_ok(status, body, &score_tag, &generation_tag(generation + 1))
            });
        tracer.end(span);
        tracer.end(root);
        out.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        done += 1;
        generation += 1;
        let check = appended
            .map_err(|e| format!("append: {e}"))
            .and_then(|_| swapped.map_err(|e| format!("reload: {e}")))
            .and_then(|g| {
                if g == Some(generation) {
                    Ok(())
                } else {
                    Err(format!("reload swapped to {g:?}, expected generation {generation}"))
                }
            })
            .and(answer);
        if let Err(why) = check {
            out.fail(format!("step {done}: {why}"));
        }
        if tracer.on() {
            probes.journal(&journal)?;
        }
    }
    out.throughput_per_s = busy_throughput(&out);
    out.peak_rss_mb = peak_rss_mb()?;

    // Off the clock: the steps the time budget did not reach go in as one
    // last refresh, so the final generation — and with it precision,
    // recall and the cold comparison — is the same on every run.
    if done < steps.len() {
        let rest: Vec<DeltaRecord> = steps[done..].iter().flatten().copied().collect();
        ctx("append remaining steps", append_to_file(&journal, &[rest]))?;
        generation += 1;
        let swapped = ctx("final reload", server.reload_now())?;
        if swapped != Some(generation) {
            return Err(format!("final reload swapped to {swapped:?}, expected {generation}"));
        }
    }
    drop(client);
    drop(server);

    // The served (warm-chained) generation against a cold estimate of the
    // fully patched graph: same flagged set, scores within 1e-9.
    let served = ctx("load final snapshot", Snapshot::load(&state, &DETECTOR, DAMPING))?;
    let saved = ctx("load final state", state.load())?;
    let t = Instant::now();
    let cold = ctx(
        "cold estimate",
        MassEstimator::new(EstimatorConfig::scaled(GAMMA)).estimate(&saved.graph, &saved.core),
    )?;
    let cold_s = t.elapsed().as_secs_f64();
    let cold_flagged = detect(&cold, &DETECTOR).candidates;
    let flagged = &served.detection().candidates;
    let drift =
        |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max);
    let score_drift = drift(&cold.pagerank, &saved.pagerank)
        .max(drift(&cold.core_pagerank, &saved.core_pagerank));
    if served.generation != generation {
        out.fail(format!("final generation {} on disk, expected {generation}", served.generation));
    }
    if *flagged != cold_flagged {
        out.fail(format!(
            "served flags {} hosts, a cold estimate {}",
            flagged.len(),
            cold_flagged.len()
        ));
    }
    if score_drift > 1e-9 {
        out.fail(format!("warm-chained scores drift {score_drift:e} from a cold estimate"));
    }
    let truth = Truth::read(&inputs.truth())?;
    let scale = cold.scale();
    let quality = quality(
        flagged,
        saved.graph.node_count(),
        |x| saved.pagerank[x as usize] * scale,
        |x| truth.is_spam(x),
    );
    out.set_flagged(flagged, quality);

    if tracer.on() {
        let l = &mut out.layers;
        l.insert("delta.journal.append_s".into(), tracer.median_seconds("delta.journal.append"));
        l.insert(
            "delta.journal.records".into(),
            tracer.median_count("delta.journal.append", "records"),
        );
        l.insert("serve.server.reload_s".into(), tracer.median_seconds("serve.server.reload"));
        let first_query = tracer.median_seconds("serve.server.first_query");
        l.insert("serve.server.first_query_us".into(), first_query * 1e6);
        l.insert("bench.untraced_gap_s".into(), tracer.median_gap("rep"));
        let cold_iterations = cold.pagerank_diag.as_ref().map_or(0, |d| d.iterations);
        l.insert("pagerank.cold.iterations".into(), cold_iterations as f64);
        probes.report(l, cold_s);
    }
    Ok(out)
}

/// The pieces of a reload, called one by one on the same inputs just
/// before the daemon does the real thing — off the clock, traced pass
/// only. `reload_now` is one call into the daemon; timing its parts from
/// outside needs these replicas until the daemon carries spans itself.
/// Samples are kept per layer metric; the median of each is reported.
#[derive(Default)]
struct Probes {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Probes {
    fn push(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    /// Runs `f`, files its duration under `metric`, and passes its result on.
    fn timed<T, E: std::fmt::Display>(
        &mut self,
        metric: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Res<T> {
        let t = Instant::now();
        let out = ctx(metric, f());
        self.push(metric, t.elapsed().as_secs_f64());
        out
    }

    /// The read a reload just did: the whole journal, consumed prefix too.
    fn journal(&mut self, journal: &Path) -> Res<()> {
        self.timed("delta.journal.read_s", || {
            let data = std::fs::read(journal).map_err(|e| e.to_string())?;
            read_journal_with(&data, &ReadOptions::default()).map_err(|e| e.to_string())
        })
        .map(|_| ())
    }

    /// What the next reload will do with `records`, from the state on disk.
    fn step(&mut self, state: &StateDir, records: &[DeltaRecord], scratch: &Path) -> Res<()> {
        let (saved, _recovery) = self.timed("delta.state.load_s", || state.load_with_recovery())?;

        let mut patched = saved.graph.clone();
        let t = Instant::now();
        let applied = GraphDelta::from_records(records).apply(&mut patched);
        self.push("delta.apply.s", t.elapsed().as_secs_f64());
        self.push(
            "delta.apply.effective_ops",
            (applied.edges_added + applied.edges_removed) as f64,
        );
        drop(patched);

        let report = self.timed("core.update.total_s", || {
            MassEstimator::new(EstimatorConfig::scaled(GAMMA)).update(saved, records, &DETECTOR)
        })?;
        self.push("core.update.warm_share", f64::from(u8::from(report.warm)));
        let diag = report.estimate.pagerank_diag.as_ref();
        self.push("pagerank.warm.iterations", diag.map_or(0, |d| d.iterations) as f64);

        let _ = std::fs::remove_dir_all(scratch);
        let scratch_state = StateDir::new(scratch);
        let estimate = &report.estimate;
        self.timed("delta.state.save_s", || {
            scratch_state.save(
                &report.graph,
                &report.core,
                &estimate.pagerank,
                &estimate.core_pagerank,
            )
        })?;
        self.push("delta.state.save_mb", dir_mb(scratch));
        self.timed("serve.snapshot.load_s", || Snapshot::load(&scratch_state, &DETECTOR, DAMPING))?;
        ctx("remove probe state", std::fs::remove_dir_all(scratch))
    }

    fn report(&self, l: &mut Layers, cold_estimate_s: f64) {
        for (metric, values) in &self.samples {
            l.insert(metric.to_string(), median(values));
        }
        // Shares and ratios are not medians of samples.
        let of = |metric: &str| self.samples.get(metric).map_or(&[][..], Vec::as_slice);
        let warm = of("core.update.warm_share");
        l.insert(
            "core.update.warm_share".into(),
            warm.iter().sum::<f64>() / warm.len().max(1) as f64,
        );
        l.insert(
            "core.update.over_cold".into(),
            median(of("core.update.total_s")) / cold_estimate_s,
        );
        let save_s = median(of("delta.state.save_s"));
        let mb_per_s = if save_s > 0.0 { median(of("delta.state.save_mb")) / save_s } else { 0.0 };
        l.insert("delta.state.save_mb_per_s".into(), mb_per_s);
    }
}
