//! `spammass update` — incrementally re-estimate after a crawl delta.
//!
//! Loads the saved state of a previous `estimate --state DIR` run, applies
//! a `SPAMDLT` journal, re-solves warm from the saved score vectors,
//! re-runs Algorithm 2, and reports the churn: newly flagged hosts, newly
//! cleared hosts, and the largest spam-mass shifts. On success the state
//! directory is rewritten so the next `update` chains off this one.

use crate::args::ParsedArgs;
use crate::commands::estimate::health_lines;
use crate::loading::{display_node, load_labels, read_options, require_hosts};
use crate::CliError;
use spammass_core::detector::DetectorConfig;
use spammass_core::estimate::{EstimatorConfig, MassEstimator};
use spammass_delta::journal::read_journal_with;
use spammass_delta::{DeltaRecord, StateDir};
use spammass_graph::NodeId;
use std::fmt::Write as _;
use std::path::Path;

/// Runs the subcommand.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&[
        "journal",
        "state",
        "labels",
        "gamma",
        "rho",
        "tau",
        "top",
        "threads",
        "edges-per-thread",
        "lenient",
        "trace",
        "metrics-out",
        "serve-metrics",
        "serve-linger",
        "crash-dump",
    ])?;
    let opts = read_options(args)?;
    let state = StateDir::new(args.required("state")?);
    let journal_path = Path::new(args.required("journal")?);
    let labels = match args.optional("labels") {
        Some(p) => Some(load_labels(Path::new(p))?),
        None => None,
    };
    let gamma: f64 = args.parsed_or("gamma", 0.85)?;
    if !(0.0..=1.0).contains(&gamma) {
        return Err(CliError::Usage(format!("--gamma {gamma} outside [0, 1]")));
    }
    let rho: f64 = args.parsed_or("rho", 10.0)?;
    let tau: f64 = args.parsed_or("tau", 0.98)?;
    let top: usize = args.parsed_or("top", 10)?;
    let threads: usize = args.parsed_or("threads", 0)?;
    let edges_per_thread: usize = args.parsed_or("edges-per-thread", 0)?;

    let data = std::fs::read(journal_path)?;
    let (batches, journal_report) = read_journal_with(&data, &opts)?;
    let records: Vec<DeltaRecord> = batches.into_iter().flatten().collect();
    // Lenient load: a damaged manifest or snapshot falls back to the
    // newest generation that still verifies, so one crash (or one flaky
    // disk) does not take the incremental pipeline down.
    let (saved, recovery) = state.load_with_recovery()?;
    require_hosts(saved.graph.node_count(), "--state")?;

    let mut out = String::new();
    if recovery.recovered {
        let _ = writeln!(out, "warning: state directory damaged; {recovery}");
        let _ = writeln!(
            out,
            "warning: run `spammass fsck --state {} --repair true` to quarantine the damage",
            state.path().display()
        );
    }
    if !journal_report.is_clean() {
        let _ = writeln!(out, "warning: {journal_report}");
    }
    let _ = writeln!(
        out,
        "journal: {} records in {} batches from {}",
        records.len(),
        journal_report.batches_total - journal_report.skipped,
        journal_path.display()
    );

    let config = EstimatorConfig::scaled(gamma).with_pagerank(
        spammass_pagerank::PageRankConfig::default()
            .threads(threads)
            .edges_per_thread(edges_per_thread),
    );
    let detector = DetectorConfig { rho, tau };
    let report = MassEstimator::new(config).update(saved, &records, &detector)?;
    let generation = state.save(
        &report.graph,
        &report.core,
        &report.estimate.pagerank,
        &report.estimate.core_pagerank,
    )?;

    let _ = writeln!(
        out,
        "delta applied: +{} edges, -{} edges, {} -> {} nodes, {} affected",
        report.apply.edges_added,
        report.apply.edges_removed,
        report.apply.nodes_before,
        report.apply.nodes_after,
        report.apply.affected.len()
    );
    if report.core_added + report.core_removed > 0 {
        let _ = writeln!(
            out,
            "core: +{} / -{} members (now {})",
            report.core_added,
            report.core_removed,
            report.core.len()
        );
    }
    match (&report.warm, &report.estimate.pagerank_diag) {
        (true, Some(diag)) => {
            let _ = writeln!(out, "warm solve: {diag}");
        }
        (true, None) => {}
        (false, _) => {
            let _ = writeln!(out, "warning: warm solve failed; cold re-estimate ran instead");
        }
    }
    out.push_str(&health_lines(&report.estimate, labels.as_ref()));

    let name = |x: &NodeId| display_node(labels.as_ref(), *x);
    let list = |nodes: &[NodeId]| {
        let sample: Vec<String> = nodes.iter().take(12).map(name).collect();
        let suffix = if nodes.len() > sample.len() { ", …" } else { "" };
        format!("{}{suffix}", sample.join(", "))
    };
    let _ = writeln!(
        out,
        "newly flagged: {}{}",
        report.diff.newly_flagged.len(),
        if report.diff.newly_flagged.is_empty() {
            String::new()
        } else {
            format!(" ({})", list(&report.diff.newly_flagged))
        }
    );
    let _ = writeln!(
        out,
        "newly cleared: {}{}",
        report.diff.newly_cleared.len(),
        if report.diff.newly_cleared.is_empty() {
            String::new()
        } else {
            format!(" ({})", list(&report.diff.newly_cleared))
        }
    );
    let _ = writeln!(
        out,
        "still flagged: {} (candidates now {})",
        report.diff.still_flagged.len(),
        report.detection.len()
    );

    let shifts = report.top_mass_shifts(top);
    if !shifts.is_empty() {
        let _ = writeln!(out, "top mass shifts (scaled):");
        for s in &shifts {
            let _ = writeln!(
                out,
                "  {:>12.4} -> {:<12.4} ({:+.4})  {}",
                s.before,
                s.after,
                s.delta(),
                display_node(labels.as_ref(), s.node)
            );
        }
    }
    let _ = writeln!(out, "state saved to {} (generation {generation})", state.path().display());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::estimate;
    use spammass_delta::JournalWriter;
    use spammass_graph::{io, GraphBuilder};
    use std::fs;

    fn parse(parts: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// Builds a star-farm graph, runs `estimate --state`, and returns the
    /// temp dir holding graph/core/state.
    fn seeded_state(tag: &str) -> std::path::PathBuf {
        let d = crate::test_dir(&format!("update-{tag}"));
        // Farm: 1..=5 -> 0 (with back-links); good pair 6 <-> 7; 7 in core.
        let mut edges: Vec<(u32, u32)> = (1..=5).flat_map(|i| [(i, 0), (0, i)]).collect();
        edges.push((6, 7));
        edges.push((7, 6));
        let g = GraphBuilder::from_edges(8, &edges);
        fs::write(d.join("g.bin"), io::graph_to_bytes_v3(&g)).unwrap();
        fs::write(d.join("core.txt"), "7\n").unwrap();
        let args = parse(&[
            "estimate",
            "--graph",
            d.join("g.bin").to_str().unwrap(),
            "--core",
            d.join("core.txt").to_str().unwrap(),
            "--state",
            d.join("state").to_str().unwrap(),
        ]);
        estimate::run(&args).unwrap();
        d
    }

    #[test]
    fn update_flags_grown_farm_and_saves_state() {
        let d = seeded_state("grow");
        // Grow the farm: boosters 8..=13 onto target 0, reflected.
        let mut w = JournalWriter::new();
        let mut records = Vec::new();
        for b in 8..=13u32 {
            records.push(DeltaRecord::AddNode { node: NodeId(b) });
            records.push(DeltaRecord::AddEdge { from: NodeId(b), to: NodeId(0) });
            records.push(DeltaRecord::AddEdge { from: NodeId(0), to: NodeId(b) });
        }
        w.append_batch(&records);
        let jp = d.join("delta.journal");
        fs::write(&jp, w.into_bytes()).unwrap();

        let args = parse(&[
            "update",
            "--journal",
            jp.to_str().unwrap(),
            "--state",
            d.join("state").to_str().unwrap(),
            "--rho",
            "2.0",
            "--tau",
            "0.9",
        ]);
        let out = run(&args).unwrap();
        assert!(out.contains("journal: 18 records in 1 batches"), "{out}");
        assert!(out.contains("newly flagged"), "{out}");
        assert!(out.contains("newly cleared"), "{out}");
        assert!(out.contains("top mass shifts"), "{out}");
        assert!(out.contains("state saved to"), "{out}");
        assert!(!out.contains("cold re-estimate"), "warm path expected: {out}");

        // The state now reflects the 14-node graph; an empty update on top
        // of it reports no churn.
        let empty = d.join("empty.journal");
        fs::write(&empty, JournalWriter::new().into_bytes()).unwrap();
        let args = parse(&[
            "update",
            "--journal",
            empty.to_str().unwrap(),
            "--state",
            d.join("state").to_str().unwrap(),
            "--rho",
            "2.0",
            "--tau",
            "0.9",
        ]);
        let out = run(&args).unwrap();
        assert!(out.contains("newly flagged: 0"), "{out}");
        assert!(out.contains("newly cleared: 0"), "{out}");
        assert!(out.contains("14 -> 14 nodes"), "{out}");
    }

    #[test]
    fn update_requires_journal_and_state() {
        let args = parse(&["update", "--journal", "/nonexistent.journal"]);
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
        let args = parse(&["update", "--state", "/nonexistent-state"]);
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn corrupt_journal_is_a_format_error_when_strict() {
        let d = seeded_state("corrupt");
        let mut w = JournalWriter::new();
        w.append_batch(&[DeltaRecord::AddNode { node: NodeId(9) }]);
        let mut bytes = w.into_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // break the batch CRC
        let jp = d.join("bad.journal");
        fs::write(&jp, &bytes).unwrap();
        let args = parse(&[
            "update",
            "--journal",
            jp.to_str().unwrap(),
            "--state",
            d.join("state").to_str().unwrap(),
        ]);
        assert!(matches!(run(&args), Err(CliError::Format(_))));

        // Lenient: the bad batch is skipped with a warning.
        let args = parse(&[
            "update",
            "--journal",
            jp.to_str().unwrap(),
            "--state",
            d.join("state").to_str().unwrap(),
            "--lenient",
            "2",
        ]);
        let out = run(&args).unwrap();
        assert!(out.contains("warning:"), "{out}");
        assert!(out.contains("journal: 0 records"), "{out}");
    }

    #[test]
    fn empty_state_and_removed_flags_are_refused() {
        let d = seeded_state("refusals");
        let journal = d.join("empty.journal");
        fs::write(&journal, JournalWriter::new().into_bytes()).unwrap();
        let run_on = |state: &std::path::Path, extra: &[&str]| {
            let mut v = vec!["update", "--journal", journal.to_str().unwrap()];
            v.extend_from_slice(&["--state", state.to_str().unwrap()]);
            v.extend_from_slice(extra);
            run(&parse(&v))
        };
        let hostless = d.join("hostless-state");
        StateDir::new(&hostless).save(&GraphBuilder::from_edges(0, &[]), &[], &[], &[]).unwrap();
        match run_on(&hostless, &[]) {
            Err(CliError::Usage(m)) => assert!(m.contains("no hosts"), "{m}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
        for removed in [["--kernel", "scalar"], ["--batch", "false"]] {
            assert!(
                matches!(run_on(&d.join("state"), &removed), Err(CliError::Usage(_))),
                "{removed:?}"
            );
        }
    }
}
