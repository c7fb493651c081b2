//! The two batch workloads: one web, two engines.
//!
//! `batch_resident` is the ROADMAP pipeline clock — shards → CSR → v3
//! image → mmap → estimate → detect → publish → daemon → first `/score`.
//! `batch_streamed` solves the same web from a v4 image under a byte
//! budget. Both must flag exactly the same hosts.

use crate::common::{
    busy_throughput, generation_tag, num, parse, quality, read_core, read_web, schema_tag,
    start_server, tagged_ok, Inputs, Measured, Web, DAMPING, DETECTOR, GAMMA,
};
use crate::load::Client;
use crate::spec::{Sizes, STREAM_BUDGET_BYTES};
use crate::trace::Tracer;
use crate::util::{ctx, fnv1a, peak_rss_mb, Layers, Res, Rng};
use spammass_core::detector::detect;
use spammass_core::estimate::{EstimateReport, EstimatorConfig, MassEstimator};
use spammass_delta::StateDir;
use spammass_graph::compress::{BlockScratch, Orientation};
use spammass_graph::io::{graph_to_bytes_v3, map_graph_file};
use spammass_graph::{CompressedImage, Graph, GraphBuilder, NodeId, NodeOrdering, Permutation};
use spammass_obs::Collector;
use spammass_pagerank::{solve_batch, JumpVector, PageRankConfig};
use spammass_serve::service::SCORE_SCHEMA;
use spammass_serve::Snapshot;
use std::path::Path;
use std::time::Instant;

/// A median needs two samples, however slow the host is today.
const MIN_REPS: u64 = 2;

fn estimator() -> MassEstimator {
    MassEstimator::new(EstimatorConfig::scaled(GAMMA))
}

/// Residuals must be at or below the configured tolerance: a verdict is
/// never reported with more confidence than the solve supports.
fn residual_ok(report: &EstimateReport) -> Result<(), String> {
    let tolerance = PageRankConfig::default().tolerance;
    let uniform = report.pagerank_diag.as_ref().map_or(0.0, |d| d.residual);
    let worst = uniform.max(report.core_diag.residual);
    if worst <= tolerance {
        Ok(())
    } else {
        Err(format!("residual {worst:e} above tolerance {tolerance:e}"))
    }
}

fn iterations(report: &EstimateReport) -> f64 {
    report.pagerank_diag.as_ref().map_or(report.core_diag.iterations, |d| d.iterations) as f64
}

/// Fills the result's quality and fingerprint fields from the last
/// repetition's estimate.
fn describe(out: &mut Measured, report: &EstimateReport, flagged: &[NodeId], spam_boundary: u64) {
    let quality = quality(
        flagged,
        report.len(),
        |x| report.scaled_pagerank(NodeId(x)),
        |x| u64::from(x) >= spam_boundary,
    );
    out.set_flagged(flagged, quality);
}

fn finish(out: &mut Measured, tracer: &Tracer) -> Res<()> {
    out.throughput_per_s = busy_throughput(out);
    out.peak_rss_mb = peak_rss_mb()?;
    out.layers.insert("bench.untraced_gap_s".into(), tracer.median_gap("rep"));
    Ok(())
}

/// Median duration of span `name` into layer metric `metric`.
fn span_metric(layers: &mut Layers, tracer: &Tracer, name: &str, metric: &str) -> f64 {
    let value = tracer.median_seconds(name);
    layers.insert(metric.into(), value);
    value
}

pub fn resident(
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    inputs: &Inputs,
    work: &Path,
    tracer: &mut Tracer,
) -> Res<Measured> {
    let mut out = Measured::default();
    let mut rng = Rng::new(seed ^ 0x5245_5349_4445_4e54); // "RESIDENT"
    let dir = work.join("rep");
    let mut run_rep = |tracer: &mut Tracer| -> Res<(f64, ResidentRep)> {
        ctx("create rep dir", std::fs::create_dir_all(&dir))?;
        let probe_node = rng.below(sizes.stream_hosts) as u32;
        let t0 = Instant::now();
        let run = resident_rep(inputs, &dir, probe_node, tracer)?;
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if tracer.on() {
            // Off the clock: what the daemon start spent loading the snapshot.
            let state = StateDir::new(dir.join("state"));
            let t = Instant::now();
            ctx("snapshot load probe", Snapshot::load(&state, &DETECTOR, DAMPING))?;
            tracer.record("probe.serve.snapshot.load", t, Instant::now());
        }
        ctx("remove rep dir", std::fs::remove_dir_all(&dir))?;
        Ok((wall_ms, run))
    };
    // The warm-up fills the page cache and the allocator; its time and
    // spans are discarded and the clock starts after it.
    for _ in 0..sizes.warmup_reps {
        run_rep(&mut Tracer::new(false))?;
    }
    let mut last = None;
    let started = Instant::now();
    while out.attempted < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        // One pipeline's memory at a time: the peak must not depend on
        // how many repetitions fitted.
        drop(last.take());
        tracer.set_rep(out.attempted as u32);
        let (wall_ms, run) = run_rep(tracer)?;
        out.samples_ms.push(wall_ms);
        out.attempted += 1;
        if let Err(why) = &run.check {
            out.fail(format!("rep {}: {why}", out.attempted));
        }
        last = Some(run);
    }
    finish(&mut out, tracer)?;
    let ResidentRep { report, flagged, spam_boundary, .. } = last.ok_or("no repetition ran")?;
    describe(&mut out, &report, &flagged, spam_boundary);

    if tracer.on() {
        let l = &mut out.layers;
        span_metric(l, tracer, "bench.read_input", "bench.read_input_s");
        let build =
            span_metric(l, tracer, "graph.builder.from_edges", "graph.builder.from_edges_s");
        let edges = tracer.median_count("graph.builder.from_edges", "edges");
        l.insert("graph.builder.edges_per_s".into(), edges / build);
        span_metric(l, tracer, "graph.io.write_v3", "graph.io.write_v3_s");
        l.insert("graph.io.v3_mb".into(), tracer.median_count("graph.io.write_v3", "mb"));
        span_metric(l, tracer, "graph.io.map_v3", "graph.io.map_v3_s");
        let zero_copy = tracer.counts_of("graph.io.map_v3", "zero_copy");
        l.insert("graph.io.zero_copy".into(), zero_copy.iter().copied().fold(1.0, f64::min));
        let estimate = span_metric(l, tracer, "core.estimate", "core.estimate.total_s");
        l.insert("core.estimate.anomalies".into(), report.anomalies.len() as f64);
        span_metric(l, tracer, "core.detect", "core.detect.s");
        l.insert("core.detect.flagged".into(), flagged.len() as f64);
        let save = span_metric(l, tracer, "delta.state.save", "delta.state.save_s");
        let save_mb = tracer.median_count("delta.state.save", "mb");
        l.insert("delta.state.save_mb".into(), save_mb);
        l.insert("delta.state.save_mb_per_s".into(), save_mb / save);
        span_metric(l, tracer, "serve.server.start", "serve.server.start_s");
        span_metric(l, tracer, "probe.serve.snapshot.load", "serve.snapshot.load_s");
        let first = tracer.median_seconds("serve.server.first_query");
        l.insert("serve.server.first_query_us".into(), first * 1e6);

        let Web { edges, core, .. } = read_web(&inputs.web())?;
        let graph = GraphBuilder::from_edges(sizes.stream_hosts as usize, &edges);
        drop(edges);
        solver_probes(l, &graph, &core, estimate)?;
    }
    Ok(out)
}

struct ResidentRep {
    report: EstimateReport,
    flagged: Vec<NodeId>,
    spam_boundary: u64,
    check: Result<(), String>,
}

/// One run of the pipeline clock. Everything between the first and the
/// last line is on the clock; the checks run after it.
fn resident_rep(
    inputs: &Inputs,
    dir: &Path,
    probe_node: u32,
    tracer: &mut Tracer,
) -> Res<ResidentRep> {
    let root = tracer.begin("rep");
    let Web { manifest, edges, core } =
        tracer.time("bench.read_input", || read_web(&inputs.web()))?;

    let span = tracer.begin("graph.builder.from_edges");
    let graph = GraphBuilder::from_edges(manifest.nodes as usize, &edges);
    drop(edges);
    tracer.count(span, "edges", graph.edge_count() as f64);
    tracer.end(span);

    let image = dir.join("web.v3.spamgrph");
    let span = tracer.begin("graph.io.write_v3");
    let bytes = graph_to_bytes_v3(&graph);
    ctx("write v3 image", std::fs::write(&image, &bytes))?;
    tracer.count(span, "mb", bytes.len() as f64 / (1u64 << 20) as f64);
    drop((bytes, graph));
    tracer.end(span);

    let span = tracer.begin("graph.io.map_v3");
    let (graph, stats) = ctx("map v3 image", map_graph_file(&image))?;
    tracer.count(span, "zero_copy", f64::from(u8::from(stats.is_zero_copy())));
    tracer.end(span);

    let report =
        ctx("estimate", tracer.time("core.estimate", || estimator().estimate(&graph, &core)))?;
    let detection = tracer.time("core.detect", || detect(&report, &DETECTOR));

    let state_dir = dir.join("state");
    let span = tracer.begin("delta.state.save");
    let generation = ctx(
        "publish",
        StateDir::new(&state_dir).save(&graph, &core, &report.pagerank, &report.core_pagerank),
    )?;
    tracer.end(span);
    if tracer.on() {
        tracer.count(span, "mb", crate::util::dir_mb(&state_dir));
    }

    let server = tracer.time("serve.server.start", || start_server(&state_dir, None, None))?;
    let span = tracer.begin("serve.server.first_query");
    let mut client = Client::connect(server.local_addr())?;
    let answer = client
        .get(&format!("/score?node={probe_node}"))
        .map(|(status, body)| (status, body.to_vec()));
    tracer.end(span);
    tracer.end(root);

    let check = (|| {
        let (status, body) = answer.map_err(|e| format!("first query: {e}"))?;
        tagged_ok(status, &body, &schema_tag(SCORE_SCHEMA), &generation_tag(generation))?;
        let doc = parse(&body)?;
        let x = NodeId(probe_node);
        // The served row must be the in-process estimate, to the bit.
        for (field, want) in [
            ("pagerank", report.scaled_pagerank(x)),
            ("core_pagerank", report.scaled_core_pagerank(x)),
            ("relative_mass", report.relative_of(x)),
        ] {
            let got = num(&doc, &["score", field])?;
            if got != want {
                return Err(format!(
                    "/score {field} of {probe_node}: served {got}, estimated {want}"
                ));
            }
        }
        residual_ok(&report)
    })();
    // Close the connection first so the accept thread is free to stop.
    drop(client);
    drop(server);
    Ok(ResidentRep {
        report,
        flagged: detection.candidates,
        spam_boundary: manifest.spam_boundary,
        check,
    })
}

/// Probes of the in-memory solver, off the pipeline clock: the batched
/// solve the estimator runs, its single-thread baseline, the cost side of
/// degree ordering, the telemetry overhead, and the host's bandwidth roof.
fn solver_probes(l: &mut Layers, graph: &Graph, core: &[NodeId], estimate_s: f64) -> Res<()> {
    let jumps = [JumpVector::Uniform, JumpVector::scaled_core(core.to_vec(), GAMMA)];
    let config = PageRankConfig::default();
    let t = Instant::now();
    let solved = ctx("solve_batch probe", solve_batch(graph, &jumps, &config))?;
    let solve_s = t.elapsed().as_secs_f64();
    let sweeps = solved[0].iterations as f64;
    let (n, m, k) = (graph.node_count() as f64, graph.edge_count() as f64, jumps.len() as f64);
    l.insert("pagerank.batch.solve_s".into(), solve_s);
    l.insert("pagerank.batch.iterations".into(), sweeps);
    l.insert("pagerank.batch.sweep_ms".into(), solve_s / sweeps * 1e3);
    l.insert("pagerank.batch.edges_per_s".into(), m * sweeps / solve_s);
    l.insert(
        "pagerank.batch.residual".into(),
        solved.iter().map(|r| r.residual).fold(0.0, f64::max),
    );
    l.insert("core.estimate.self_s".into(), estimate_s - solve_s);

    let t = Instant::now();
    ctx("solve_batch 1-thread probe", solve_batch(graph, &jumps, &config.threads(1)))?;
    let solve_1t_s = t.elapsed().as_secs_f64();
    l.insert("pagerank.batch.solve_1t_s".into(), solve_1t_s);
    l.insert("pagerank.batch.speedup_vs_1t".into(), solve_1t_s / solve_s);

    // Computed, not measured: the in-CSR read once, and per column the
    // jump and front vectors read and the back vector written once, plus
    // the coefficient vector — what a sweep must move with perfect reuse
    // of gathered scores.
    let sweep_bytes = 4.0 * (n + 1.0) + 4.0 * m + 8.0 * n * (3.0 * k + 1.0);
    l.insert("pagerank.batch.bytes_per_edge_sweep_computed".into(), sweep_bytes / m);
    let triad = triad_gb_per_s();
    l.insert("host.triad_gb_per_s".into(), triad);
    l.insert("pagerank.batch.triad_fraction".into(), sweep_bytes * sweeps / solve_s / 1e9 / triad);

    let t = Instant::now();
    let permuted = Permutation::compute(graph, NodeOrdering::DegreeDescending).permute_graph(graph);
    l.insert("graph.order.degree_s".into(), t.elapsed().as_secs_f64());
    drop(permuted);

    // ROADMAP §B "measure the instrument": the same estimate with a
    // thread-local collector installed, against the bare one.
    let timed = |collector: Option<&Collector>| -> Res<f64> {
        let _guard = collector.map(Collector::install);
        let t = Instant::now();
        ctx("estimate probe", estimator().estimate(graph, core))?;
        Ok(t.elapsed().as_secs_f64())
    };
    let collector = Collector::builder().build();
    // Alternated, best of two each: one pair alone reads mostly noise.
    let (bare_1, observed_1) = (timed(None)?, timed(Some(&collector))?);
    let (bare, observed) = (bare_1.min(timed(None)?), observed_1.min(timed(Some(&collector))?));
    l.insert("obs.collector.estimate_overhead_pct".into(), (observed / bare - 1.0) * 100.0);
    Ok(())
}

/// STREAM triad `a = b + s·c` over three 128 MiB arrays — 384 MiB, past
/// this box's 4 MiB L2 and 260 MiB shared L3 — best of three passes, in
/// GB/s counting the three arrays once each.
pub fn triad_gb_per_s() -> f64 {
    const N: usize = 16 << 20;
    let b = vec![1.0f64; N];
    let c = vec![2.0f64; N];
    let mut a = vec![0.0f64; N];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + 3.0 * *c;
        }
        std::hint::black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (3 * N * 8) as f64 / best / 1e9
}

pub fn streamed(seconds: f64, inputs: &Inputs, work: &Path, tracer: &mut Tracer) -> Res<Measured> {
    let mut out = Measured::default();
    let mut last = None;
    let started = Instant::now();
    let mut rep = 0u32;
    while out.attempted < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        drop(last.take());
        tracer.set_rep(rep);
        let t0 = Instant::now();
        let root = tracer.begin("rep");
        let core = tracer.time("bench.read_input", || read_core(&inputs.web()))?;
        let image = ctx(
            "open v4 image",
            tracer.time("graph.compress.open", || CompressedImage::open(&inputs.v4())),
        )?;
        let span = tracer.begin("core.estimate_streamed");
        let report = ctx(
            "estimate_streamed",
            estimator().estimate_streamed(&image, &core, STREAM_BUDGET_BYTES),
        )?;
        tracer.count(span, "encoded_mb", image.encoded_bytes_read() as f64 / (1u64 << 20) as f64);
        tracer.end(span);
        let detection = tracer.time("core.detect", || detect(&report, &DETECTOR));
        let listing: String = detection.candidates.iter().map(|x| format!("{}\n", x.0)).collect();
        let written =
            tracer.time("bench.write_output", || std::fs::write(work.join("flagged.txt"), listing));
        tracer.end(root);
        out.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        if let Err(why) = written.map_err(|e| e.to_string()).and_then(|()| residual_ok(&report)) {
            out.fail(format!("rep {rep}: {why}"));
        }
        last = Some((report, detection.candidates));
        rep += 1;
    }
    finish(&mut out, tracer)?;
    let (report, flagged) = last.ok_or("no repetition ran")?;

    // Off the clock, after the memory reading: the resident engine on the
    // same shards must flag exactly the same hosts.
    let Web { manifest, edges, core } = read_web(&inputs.web())?;
    describe(&mut out, &report, &flagged, manifest.spam_boundary);
    let graph = GraphBuilder::from_edges(manifest.nodes as usize, &edges);
    drop(edges);
    let resident = ctx("resident estimate", estimator().estimate(&graph, &core))?;
    let expected = detect(&resident, &DETECTOR).candidates;
    if expected != flagged {
        out.fail(format!(
            "streamed flagged {} hosts (hash {:016x}), resident {} (hash {:016x})",
            flagged.len(),
            out.flagged_hash,
            expected.len(),
            fnv1a(expected.iter().map(|x| x.0)),
        ));
    }

    if tracer.on() {
        let l = &mut out.layers;
        span_metric(l, tracer, "bench.read_input", "bench.read_input_s");
        span_metric(l, tracer, "bench.write_output", "bench.write_output_s");
        span_metric(l, tracer, "graph.compress.open", "graph.compress.open_s");
        let total =
            span_metric(l, tracer, "core.estimate_streamed", "core.estimate_streamed.total_s");
        let encoded_mb = tracer.median_count("core.estimate_streamed", "encoded_mb");
        l.insert("graph.compress.encoded_mb_read".into(), encoded_mb);
        span_metric(l, tracer, "core.detect", "core.detect.s");
        l.insert("core.detect.flagged".into(), flagged.len() as f64);
        // The streamed estimate is the streamed solve plus O(n) vector
        // arithmetic; there is no separate public entry to time.
        let sweeps = iterations(&report);
        l.insert("pagerank.stream.solve_s".into(), total);
        l.insert("pagerank.stream.iterations".into(), sweeps);
        l.insert("pagerank.stream.sweep_ms".into(), total / sweeps * 1e3);
        l.insert("pagerank.stream.budget_mb".into(), (STREAM_BUDGET_BYTES >> 20) as f64);

        let image = ctx("open v4 image", CompressedImage::open(&inputs.v4()))?;
        let mut scratch = BlockScratch::default();
        let t = Instant::now();
        for idx in 0..image.block_count(Orientation::In) {
            ctx("decode_block probe", image.decode_block(Orientation::In, idx, &mut scratch))?;
        }
        let decode_s = t.elapsed().as_secs_f64();
        l.insert("graph.compress.decode_pass_s".into(), decode_s);
        l.insert("graph.compress.decode_edges_per_s".into(), image.edge_count() as f64 / decode_s);

        let jumps = [JumpVector::Uniform, JumpVector::scaled_core(core.clone(), GAMMA)];
        let t = Instant::now();
        let solved = ctx(
            "solve_batch 1-thread probe",
            solve_batch(&graph, &jumps, &PageRankConfig::default().threads(1)),
        )?;
        let sweep_1t_ms = t.elapsed().as_secs_f64() / solved[0].iterations as f64 * 1e3;
        l.insert("pagerank.stream.over_resident_1t".into(), total / sweeps * 1e3 / sweep_1t_ms);
        l.insert("host.triad_gb_per_s".into(), triad_gb_per_s());
    }
    Ok(out)
}
