//! `spammass generate` — write a synthetic host graph (plus labels,
//! ground truth, and a Section 4.2 core list) to disk.

use crate::args::ParsedArgs;
use crate::CliError;
use spammass_graph::io;
use spammass_synth::scenario::{Scenario, ScenarioConfig};
use spammass_synth::stream::{generate_stream, StreamConfig};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Runs the subcommand.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&[
        "hosts",
        "seed",
        "out",
        "labels",
        "truth",
        "core",
        "evolve",
        "journal",
        "stream",
        "trace",
        "metrics-out",
    ])?;
    if let Some(dir) = args.optional("stream") {
        return run_stream(args, dir);
    }
    let hosts: usize = args.parsed_or("hosts", 60_000)?;
    let seed: u64 = args.parsed_or("seed", 42)?;
    let evolve: usize = args.parsed_or("evolve", 0)?;
    if evolve > 0 && args.optional("journal").is_none() {
        return Err(CliError::Usage("--evolve requires --journal FILE".into()));
    }
    let out = Path::new(args.required("out")?);

    let config = ScenarioConfig::sized(hosts).with_evolve_steps(evolve);
    let scenario = Scenario::generate(&config, seed);
    fs::write(out, io::graph_to_bytes_v3(&scenario.graph))?;

    let mut report = String::new();
    let _ = writeln!(
        report,
        "generated {} hosts / {} edges (seed {seed}, spam fraction {:.1}%)",
        scenario.graph.node_count(),
        scenario.graph.edge_count(),
        scenario.spam_fraction() * 100.0
    );
    let _ = writeln!(report, "graph written to {}", out.display());

    if let Some(path) = args.optional("labels") {
        let file = fs::File::create(path)?;
        io::write_labels(&scenario.labels, file)?;
        let _ = writeln!(report, "labels written to {path}");
    }
    if let Some(path) = args.optional("truth") {
        let mut text = String::from("# node\tis_spam\n");
        for (node, class) in scenario.truth.iter() {
            let _ = writeln!(text, "{}\t{}", node.0, u8::from(class.is_spam()));
        }
        fs::write(path, text)?;
        let _ = writeln!(report, "ground truth written to {path}");
    }
    if let Some(path) = args.optional("core") {
        let mut text = String::from("# Section 4.2 good core (node ids)\n");
        for node in scenario.section_4_2_core() {
            let _ = writeln!(text, "{}", node.0);
        }
        fs::write(path, text)?;
        let _ = writeln!(report, "good core written to {path}");
    }
    if evolve > 0 {
        let path = args.optional("journal").expect("checked above");
        let ev = scenario.evolve(&config, seed);
        fs::write(path, ev.journal_bytes())?;
        let _ = writeln!(
            report,
            "evolution journal written to {path}: {} steps, {} records, {} new spam hosts",
            ev.steps.len(),
            ev.all_records().len(),
            ev.new_spam().len()
        );
    }
    Ok(report)
}

/// `--stream DIR`: the out-of-core generator. Emits edge shards plus
/// truth/core/manifest straight into `DIR` without ever materializing
/// the graph, so host counts in the tens of millions are fine. Convert
/// the shard directory to a queryable image with
/// `spammass convert --in DIR --format v4`.
fn run_stream(args: &ParsedArgs, dir: &str) -> Result<String, CliError> {
    for flag in ["out", "labels", "truth", "core", "evolve", "journal"] {
        if args.optional(flag).is_some() {
            return Err(CliError::Usage(format!(
                "--stream writes the whole scenario into its directory; --{flag} does not apply"
            )));
        }
    }
    let hosts: u64 = args.parsed_or("hosts", 1_000_000)?;
    let seed: u64 = args.parsed_or("seed", 42)?;
    let config = StreamConfig::sized(hosts);
    let summary = generate_stream(Path::new(dir), &config, seed)?;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "streamed {} hosts / {} edges into {} shard(s) (seed {seed}, {} spam hosts)",
        summary.hosts,
        summary.edges,
        summary.shards,
        summary.hosts - summary.spam_boundary,
    );
    let _ = writeln!(
        report,
        "scenario written to {dir}: manifest.tsv, edges-*.bin, truth.tsv, core.txt ({} core hosts)",
        summary.core_size
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loading::{load_core, load_graph, load_labels};

    #[test]
    fn generates_all_artifacts_round_trippable() {
        let d = crate::test_dir("generate-artifacts");
        let graph = d.join("web.graph");
        let labels = d.join("hosts.txt");
        let truth = d.join("truth.tsv");
        let core = d.join("core.txt");
        let args = ParsedArgs::parse(
            &[
                "generate",
                "--hosts",
                "2000",
                "--seed",
                "7",
                "--out",
                graph.to_str().unwrap(),
                "--labels",
                labels.to_str().unwrap(),
                "--truth",
                truth.to_str().unwrap(),
                "--core",
                core.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("graph written"));

        let g = load_graph(&graph).unwrap();
        assert!(g.node_count() >= 1900, "nodes: {}", g.node_count());
        let l = load_labels(&labels).unwrap();
        assert_eq!(l.len(), g.node_count());
        let c = load_core(&core, Some(&l), g.node_count()).unwrap();
        assert!(!c.nodes.is_empty());
        assert!(c.duplicates.is_empty());

        let truth_text = fs::read_to_string(&truth).unwrap();
        // header + one line per node
        assert_eq!(truth_text.lines().count(), g.node_count() + 1);
    }

    #[test]
    fn evolve_writes_a_readable_journal() {
        let d = crate::test_dir("generate-evolve");
        let graph = d.join("evolve.graph");
        let journal = d.join("evolve.journal");
        let args = ParsedArgs::parse(
            &[
                "generate",
                "--hosts",
                "2000",
                "--seed",
                "9",
                "--out",
                graph.to_str().unwrap(),
                "--evolve",
                "2",
                "--journal",
                journal.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("evolution journal written"), "{report}");
        let batches = spammass_delta::read_journal(&fs::read(&journal).unwrap()).unwrap();
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|b| !b.is_empty()));
    }

    #[test]
    fn evolve_without_journal_is_a_usage_error() {
        let args = ParsedArgs::parse(
            &["generate", "--hosts", "500", "--out", "/tmp/x.graph", "--evolve", "2"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn stream_mode_writes_a_shard_directory() {
        let d = crate::test_dir("generate-stream").join("streamed");
        let args = ParsedArgs::parse(
            &["generate", "--stream", d.to_str().unwrap(), "--hosts", "4000", "--seed", "3"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("streamed 4000 hosts"), "{report}");
        let manifest = spammass_synth::stream::StreamManifest::read(&d).unwrap();
        assert_eq!(manifest.nodes, 4000);
        assert!(manifest.edges > 4000);
        for path in manifest.shard_paths(&d) {
            assert!(path.is_file(), "missing shard {}", path.display());
        }
        assert!(d.join("truth.tsv").is_file());
        assert!(d.join("core.txt").is_file());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn stream_mode_rejects_materializing_flags() {
        let args = ParsedArgs::parse(
            &["generate", "--stream", "/tmp/x", "--out", "/tmp/y.graph"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn rejects_unknown_flags() {
        let args = ParsedArgs::parse(
            &["generate", "--hostz", "10", "--out", "x"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(run(&args).is_err());
    }
}
