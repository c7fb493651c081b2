//! The benchmark's contract: workload names, metric catalog, input sizes.
//!
//! `BENCHMARK.json` at the repository root is generated from this file
//! (`benchmark spec`); a test fails when the two drift apart.

use crate::util::quoted;

/// Workload names with the one-line reason each exists. Names are stable:
/// later issues cite them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "batch_resident",
        "1M-host web, cold pipeline shards->CSR->v3 image->mmap->estimate->detect->publish->first /score: \
         in-memory solve plus persistence dominate",
    ),
    (
        "batch_streamed",
        "same web from a v4 image under a 64 MiB budget: block decode + streamed solve do all the work, \
         the resident engine none",
    ),
    (
        "refresh",
        "300k-host daemon, journal append -> reload (warm update, publish, snapshot swap) -> query: \
         the same layers used warm, writing beside reading",
    ),
    (
        "serve_point",
        "one keep-alive client, 8000 req/s of /score + small /batch: per-request work is nanoseconds, \
         so transport and the server loop are the cost",
    ),
    (
        "serve_scan",
        "300 req/s of /topk, /explain and /batch of 256: snapshot scans and JSON rendering dominate, \
         transport does little",
    ),
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these in an untraced run. Bounds
/// are at least three times the spread seen over ten runs at ten seeds on a
/// shared 2-core box (README, "Run-to-run spread"): seeds change the inputs
/// as well as the request stream, so the spread is partly the generator's.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "throughput_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25 },
    EndToEnd { name: "flagged_precision", unit: "ratio", better: "higher", bound: 0.25 },
    EndToEnd { name: "flagged_recall", unit: "ratio", better: "higher", bound: 0.09 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// Per-layer metrics `(name, unit, better)`, layer = `crate.module`. A
/// traced run reports all of them; a layer the workload does not exercise
/// reads 0.
pub const PER_LAYER: [(&str, &str, &str); 82] = [
    ("synth.stream.generate_s", "s", "lower"),
    ("synth.scenario.generate_s", "s", "lower"),
    ("synth.evolve.records", "count", "higher"),
    ("graph.builder.from_edges_s", "s", "lower"),
    ("graph.builder.edges_per_s", "1/s", "higher"),
    ("graph.io.write_v3_s", "s", "lower"),
    ("graph.io.v3_mb", "MiB", "lower"),
    ("graph.io.map_v3_s", "s", "lower"),
    ("graph.io.zero_copy", "count", "higher"),
    ("graph.compress.open_s", "s", "lower"),
    ("graph.compress.decode_pass_s", "s", "lower"),
    ("graph.compress.decode_edges_per_s", "1/s", "higher"),
    ("graph.compress.encoded_mb_read", "MiB", "lower"),
    ("graph.compress.encode_v4_s", "s", "lower"),
    ("graph.compress.v4_bits_per_edge", "bit", "lower"),
    ("graph.order.degree_s", "s", "lower"),
    ("pagerank.batch.solve_s", "s", "lower"),
    ("pagerank.batch.iterations", "count", "lower"),
    ("pagerank.batch.sweep_ms", "ms", "lower"),
    ("pagerank.batch.edges_per_s", "1/s", "higher"),
    ("pagerank.batch.residual", "ratio", "lower"),
    ("pagerank.batch.solve_1t_s", "s", "lower"),
    ("pagerank.batch.speedup_vs_1t", "ratio", "higher"),
    ("pagerank.batch.bytes_per_edge_sweep_computed", "B", "lower"),
    ("pagerank.batch.triad_fraction", "ratio", "higher"),
    ("pagerank.stream.solve_s", "s", "lower"),
    ("pagerank.stream.iterations", "count", "lower"),
    ("pagerank.stream.sweep_ms", "ms", "lower"),
    ("pagerank.stream.budget_mb", "MiB", "lower"),
    ("pagerank.stream.over_resident_1t", "ratio", "lower"),
    ("pagerank.warm.iterations", "count", "lower"),
    ("pagerank.cold.iterations", "count", "lower"),
    ("core.estimate.total_s", "s", "lower"),
    ("core.estimate.self_s", "s", "lower"),
    ("core.estimate.anomalies", "count", "lower"),
    ("core.estimate_streamed.total_s", "s", "lower"),
    ("core.detect.s", "s", "lower"),
    ("core.detect.flagged", "count", "higher"),
    ("core.update.total_s", "s", "lower"),
    ("core.update.warm_share", "ratio", "higher"),
    ("core.update.over_cold", "ratio", "lower"),
    ("delta.journal.append_s", "s", "lower"),
    ("delta.journal.read_s", "s", "lower"),
    ("delta.journal.records", "count", "higher"),
    ("delta.apply.s", "s", "lower"),
    ("delta.apply.effective_ops", "count", "higher"),
    ("delta.state.load_s", "s", "lower"),
    ("delta.state.save_s", "s", "lower"),
    ("delta.state.save_mb", "MiB", "lower"),
    ("delta.state.save_mb_per_s", "MiB/s", "higher"),
    ("serve.snapshot.load_s", "s", "lower"),
    ("serve.snapshot.score_ns", "ns", "lower"),
    ("serve.snapshot.topk_us", "us", "lower"),
    ("serve.snapshot.explain_us", "us", "lower"),
    ("serve.service.score_us", "us", "lower"),
    ("serve.service.batch_us", "us", "lower"),
    ("serve.service.topk_us", "us", "lower"),
    ("serve.service.explain_us", "us", "lower"),
    ("serve.server.start_s", "s", "lower"),
    ("serve.server.first_query_us", "us", "lower"),
    ("serve.server.score_rtt_us", "us", "lower"),
    ("serve.server.batch_rtt_us", "us", "lower"),
    ("serve.server.topk_rtt_us", "us", "lower"),
    ("serve.server.explain_rtt_us", "us", "lower"),
    ("serve.server.transport_us", "us", "lower"),
    ("serve.server.reload_s", "s", "lower"),
    ("serve.server.open_p50_us", "us", "lower"),
    ("serve.server.latency_p99_us", "us", "lower"),
    ("serve.server.latency_max_us", "us", "lower"),
    ("serve.server.sent", "count", "higher"),
    ("serve.server.failed", "count", "lower"),
    ("serve.server.late_p99_us", "us", "lower"),
    ("serve.server.backlog_max", "count", "lower"),
    ("obs.collector.estimate_overhead_pct", "%", "lower"),
    ("host.nproc", "count", "higher"),
    ("host.triad_gb_per_s", "GB/s", "higher"),
    ("bench.read_input_s", "s", "lower"),
    ("bench.write_output_s", "s", "lower"),
    ("bench.samples", "count", "higher"),
    ("bench.sample_p50_ms", "ms", "lower"),
    ("bench.sample_max_ms", "ms", "lower"),
    ("bench.untraced_gap_s", "s", "lower"),
];

/// How long one driver run measures; also `run`'s default.
pub const RUN_SECONDS: u32 = 10;

/// Input sizes and load parameters of one benchmark run.
pub struct Sizes {
    /// Hosts of the streamed-generator web the batch workloads solve.
    pub stream_hosts: u64,
    /// Hosts of the scenario the daemon workloads serve.
    pub scenario_hosts: usize,
    /// Journal steps generated for `refresh`.
    pub evolve_steps: usize,
    /// Set-up repetitions (the median is reported).
    pub setup_reps: usize,
    /// Discarded warm-up repetitions of `batch_resident`.
    pub warmup_reps: usize,
    /// Open-loop request rate of `serve_point`.
    pub point_rate: f64,
    /// Open-loop request rate of `serve_scan`.
    pub scan_rate: f64,
    /// How many of the highest-PageRank hosts `/explain` draws from.
    pub explain_pool: usize,
}

/// Resident budget of the streamed solve, the product claim of
/// `batch_streamed`.
pub const STREAM_BUDGET_BYTES: u64 = 64 << 20;

pub fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            stream_hosts: 20_000,
            scenario_hosts: 20_000,
            evolve_steps: 3,
            setup_reps: 1,
            warmup_reps: 0,
            point_rate: 2_000.0,
            scan_rate: 300.0,
            explain_pool: 200,
        }
    } else {
        Sizes {
            stream_hosts: 1_000_000,
            scenario_hosts: 300_000,
            evolve_steps: 16,
            setup_reps: 3,
            warmup_reps: 1,
            point_rate: 8_000.0,
            scan_rate: 300.0,
            explain_pool: 1_000,
        }
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let section = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("{{\"name\": {}, \"why\": {}}}", quoted(name), quoted(why)));
    let end_to_end = END_TO_END.iter().map(|m| {
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
            quoted(m.name),
            quoted(m.unit),
            quoted(m.better),
            m.bound
        )
    });
    let per_layer = PER_LAYER.iter().map(|(name, unit, better)| {
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
            quoted(name),
            quoted(unit),
            quoted(better)
        )
    });
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        section(workloads.collect()),
        section(end_to_end.collect()),
        section(per_layer.collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "why too long: {}", why.len());
        }
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {unit:?}"
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound {}", m.name, m.bound);
            assert!(m.better == "lower" || m.better == "higher");
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn checked_in_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `benchmark spec > BENCHMARK.json`");
        spammass_obs::json::Json::parse(&on_disk).expect("BENCHMARK.json parses");
    }
}
