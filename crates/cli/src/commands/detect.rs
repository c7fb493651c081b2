//! `spammass detect` — run Algorithm 2 and list the spam candidates.

use crate::args::ParsedArgs;
use crate::commands::estimate::health_lines;
use crate::loading::{
    display_node, ingest_warning, load_core, load_graph_with, load_labels, read_options,
    require_hosts,
};
use crate::CliError;
use spammass_core::detector::{detect, DetectorConfig};
use spammass_core::estimate::{EstimatorConfig, MassEstimator};
use spammass_core::top_k_by;
use std::fmt::Write as _;
use std::path::Path;

/// Runs the subcommand.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&[
        "graph",
        "core",
        "labels",
        "gamma",
        "rho",
        "tau",
        "top",
        "lenient",
        "trace",
        "metrics-out",
    ])?;
    let opts = read_options(args)?;
    let (graph, load_report) = load_graph_with(Path::new(args.required("graph")?), &opts)?;
    require_hosts(graph.node_count(), "--graph")?;
    let labels = match args.optional("labels") {
        Some(p) => Some(load_labels(Path::new(p))?),
        None => None,
    };
    let core_load =
        load_core(Path::new(args.required("core")?), labels.as_ref(), graph.node_count())?;
    let gamma: f64 = args.parsed_or("gamma", 0.85)?;
    let rho: f64 = args.parsed_or("rho", 10.0)?;
    let tau: f64 = args.parsed_or("tau", 0.98)?;
    let top: usize = args.parsed_or("top", 0)?;
    if !(0.0..=1.0).contains(&gamma) {
        return Err(CliError::Usage(format!("--gamma {gamma} outside [0, 1]")));
    }

    let mut out = String::new();
    if let Some(w) = ingest_warning(load_report.as_ref()) {
        let _ = writeln!(out, "{w}");
    }
    if let Some(w) = core_load.warning() {
        let _ = writeln!(out, "{w}");
    }

    let estimate =
        MassEstimator::new(EstimatorConfig::scaled(gamma)).estimate(&graph, &core_load.nodes)?;
    out.push_str(&health_lines(&estimate, labels.as_ref()));
    let detection = detect(&estimate, &DetectorConfig { rho, tau });

    let _ = writeln!(
        out,
        "Algorithm 2 (rho = {rho}, tau = {tau}): {} candidates among {} hosts with scaled p >= {rho}",
        detection.len(),
        detection.considered
    );
    // Partial select instead of a full sort: --top K asks for K winners
    // (0 = all). Candidates arrive ascending by node id, and top_k_by
    // breaks ties in first-seen order, so equal scores list by node id
    // — same order the old total_cmp sort produced. NaN-safety comes
    // from the helper's total_cmp convention.
    let k = if top == 0 { detection.candidates.len() } else { top };
    let shown = top_k_by(detection.candidates.iter().copied(), k, |x| estimate.scaled_pagerank(*x));
    if shown.len() < detection.candidates.len() {
        let _ = writeln!(out, "(showing top {} of {})", shown.len(), detection.candidates.len());
    }
    let _ = writeln!(out, "{:>10} {:>8}  candidate", "scaled p", "m~");
    for x in shown {
        let _ = writeln!(
            out,
            "{:>10.2} {:>8.4}  {}",
            estimate.scaled_pagerank(x),
            estimate.relative_of(x),
            display_node(labels.as_ref(), x)
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spammass_graph::{io, GraphBuilder, NodeId};
    use std::fs;

    #[test]
    fn detects_the_boosted_target() {
        // 30 boosters -> target 0; target backlinks; good pair 31 <-> 32
        // with 32 in the core.
        let mut edges: Vec<(u32, u32)> = (1..=30).flat_map(|i| [(i, 0), (0, i)]).collect();
        edges.push((31, 32));
        edges.push((32, 31));
        let g = GraphBuilder::from_edges(33, &edges);
        let d = crate::test_dir("detect-boosted-target");
        let gp = d.join("g.bin");
        fs::write(&gp, io::graph_to_bytes_v3(&g)).unwrap();
        let cp = d.join("core.txt");
        fs::write(&cp, "32\n").unwrap();

        let args = ParsedArgs::parse(
            &[
                "detect",
                "--graph",
                gp.to_str().unwrap(),
                "--core",
                cp.to_str().unwrap(),
                "--rho",
                "5",
                "--tau",
                "0.9",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("1 candidates"), "{out}");
        // The candidate line names node 0 (no labels file).
        assert!(out.lines().any(|l| l.trim_end().ends_with("  0")), "{out}");
        let _ = NodeId(0);
    }

    #[test]
    fn top_k_truncates_the_candidate_list() {
        // Two independent farms (targets 0 and 1, 0 boosted harder) so
        // the detector flags two candidates and --top 1 keeps the
        // stronger one.
        let mut edges: Vec<(u32, u32)> = (2..=16).flat_map(|i| [(i, 0), (0, i)]).collect();
        edges.extend((17..=26).flat_map(|i| [(i, 1), (1, i)]));
        edges.push((27, 28));
        edges.push((28, 27));
        let g = GraphBuilder::from_edges(29, &edges);
        let d = crate::test_dir("detect-top-k");
        let gp = d.join("g.bin");
        fs::write(&gp, io::graph_to_bytes_v3(&g)).unwrap();
        let cp = d.join("core.txt");
        fs::write(&cp, "28\n").unwrap();

        let base = [
            "detect",
            "--graph",
            gp.to_str().unwrap(),
            "--core",
            cp.to_str().unwrap(),
            "--rho",
            "3",
            "--tau",
            "0.9",
        ];
        let parse = |extra: &[&str]| {
            let mut v: Vec<String> = base.iter().map(|s| s.to_string()).collect();
            v.extend(extra.iter().map(|s| s.to_string()));
            ParsedArgs::parse(&v).unwrap()
        };
        // Every farm member clears the low rho here; what matters is
        // that --top keeps only the strongest and the full run is
        // untruncated.
        let all = run(&parse(&[])).unwrap();
        assert!(all.contains("27 candidates"), "{all}");
        assert!(!all.contains("showing top"), "{all}");

        let top1 = run(&parse(&["--top", "1"])).unwrap();
        assert!(top1.contains("(showing top 1 of 27)"), "{top1}");
        // The harder-boosted target 0 wins the single slot.
        assert!(top1.lines().any(|l| l.trim_end().ends_with("  0")), "{top1}");
        assert!(!top1.lines().any(|l| l.trim_end().ends_with("  1")), "{top1}");
    }

    #[test]
    fn empty_graph_and_removed_flags_are_refused() {
        let d = crate::test_dir("detect-refusals");
        let (empty, gp, cp) = (d.join("empty.txt"), d.join("g.txt"), d.join("core.txt"));
        fs::write(&empty, "").unwrap();
        fs::write(&gp, "0 1\n1 0\n").unwrap();
        fs::write(&cp, "0\n").unwrap();
        let run_on = |graph: &std::path::Path, extra: &[&str]| {
            let mut v = vec!["detect", "--graph", graph.to_str().unwrap()];
            v.extend_from_slice(&["--core", cp.to_str().unwrap()]);
            v.extend_from_slice(extra);
            run(&ParsedArgs::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap())
        };
        match run_on(&empty, &[]) {
            Err(CliError::Usage(m)) => assert!(m.contains("no hosts"), "{m}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
        assert!(run_on(&gp, &[]).is_ok());
        for removed in [["--kernel", "scalar"], ["--order", "degree"]] {
            match run_on(&gp, &removed) {
                Err(CliError::Usage(m)) => assert!(m.contains(removed[0]), "{m}"),
                other => panic!("{removed:?}: expected a usage error, got {other:?}"),
            }
        }
    }
}
