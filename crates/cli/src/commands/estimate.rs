//! `spammass estimate` — compute spam-mass estimates for every host and
//! write them as TSV.

use crate::args::ParsedArgs;
use crate::loading::{
    display_node, ingest_warning, load_core, load_graph_with, load_labels, read_options,
    require_hosts,
};
use crate::CliError;
use spammass_core::estimate::{EstimateReport, EstimatorConfig, MassEstimator};
use spammass_graph::NodeId;
use std::fmt::Write as _;
use std::path::Path;

/// Renders the health diagnostics of an [`EstimateReport`] — a solve that
/// needed its second attempt, anomalous nodes, dead core entries — as
/// warning lines.
pub(crate) fn health_lines(
    report: &EstimateReport,
    labels: Option<&spammass_graph::NodeLabels>,
) -> String {
    let mut out = String::new();
    if let Some(diag) = &report.pagerank_diag {
        if diag.used_fallback() {
            let _ = writeln!(out, "warning: pagerank run degraded — {diag}");
        }
    }
    if report.core_diag.used_fallback() {
        let _ = writeln!(out, "warning: core run degraded — {diag}", diag = report.core_diag);
    }
    if !report.dead_core.is_empty() {
        let sample: Vec<String> =
            report.dead_core.iter().take(8).map(|&x| display_node(labels, x)).collect();
        let _ = writeln!(
            out,
            "warning: {} core entr{} carr{} no PageRank (stale core?): {}",
            report.dead_core.len(),
            if report.dead_core.len() == 1 { "y" } else { "ies" },
            if report.dead_core.len() == 1 { "ies" } else { "y" },
            sample.join(", ")
        );
    }
    if !report.anomalies.is_empty() {
        let sample: Vec<String> =
            report.anomalies.iter().take(8).map(|&x| display_node(labels, x)).collect();
        let _ = writeln!(
            out,
            "warning: {} node(s) with estimated good contribution above PageRank \
             (p' > p; gamma may overshoot): {}",
            report.anomalies.len(),
            sample.join(", ")
        );
    }
    out
}

/// Runs the subcommand.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&[
        "graph",
        "core",
        "labels",
        "gamma",
        "out",
        "state",
        "top",
        "threads",
        "edges-per-thread",
        "lenient",
        "max-resident-mb",
        "trace",
        "metrics-out",
        "serve-metrics",
        "serve-linger",
        "crash-dump",
    ])?;
    let labels = match args.optional("labels") {
        Some(p) => Some(load_labels(Path::new(p))?),
        None => None,
    };
    let gamma: f64 = args.parsed_or("gamma", 0.85)?;
    if !(0.0..=1.0).contains(&gamma) {
        return Err(CliError::Usage(format!("--gamma {gamma} outside [0, 1]")));
    }
    let top: usize = args.parsed_or("top", 20)?;
    let threads: usize = args.parsed_or("threads", 0)?;
    let edges_per_thread: usize = args.parsed_or("edges-per-thread", 0)?;

    let pagerank_config = spammass_pagerank::PageRankConfig::default()
        .threads(threads)
        .edges_per_thread(edges_per_thread);

    let mut warnings = String::new();
    let estimate;
    let node_count;
    let core_len;
    if let Some(_budget) = args.optional("max-resident-mb") {
        // Out-of-core path: the graph stays a compressed v4 image on disk;
        // only score vectors and one decode scratch per worker are
        // resident.
        let budget_mb: u64 = args.parsed_or("max-resident-mb", 0)?;
        if budget_mb == 0 {
            return Err(CliError::Usage("--max-resident-mb must be a positive integer".into()));
        }
        if args.optional("state").is_some() {
            return Err(CliError::Usage(
                "--state does not apply to the streamed (--max-resident-mb) path; \
                 a state generation holds a resident v3 image"
                    .into(),
            ));
        }
        let path = Path::new(args.required("graph")?);
        #[cfg(unix)]
        let image = spammass_graph::CompressedImage::open(path)?;
        #[cfg(not(unix))]
        let image =
            spammass_graph::CompressedImage::from_store(std::sync::Arc::new(std::fs::read(path)?))?;
        require_hosts(image.node_count(), "--graph")?;
        let core_load =
            load_core(Path::new(args.required("core")?), labels.as_ref(), image.node_count())?;
        if let Some(w) = core_load.warning() {
            let _ = writeln!(warnings, "{w}");
        }
        let config = EstimatorConfig::scaled(gamma).with_pagerank(pagerank_config);
        let estimator = MassEstimator::new(config);
        let budget = budget_mb * 1024 * 1024;
        let workers = estimator.streamed_workers(&image, &core_load.nodes, budget)?;
        estimate = estimator.estimate_streamed(&image, &core_load.nodes, budget)?;
        node_count = image.node_count();
        core_len = core_load.nodes.len();
        let _ = writeln!(
            warnings,
            "streamed solve: {} blocks / {:.1} MiB decoded against a {budget_mb} MiB budget \
             on {workers} worker{}",
            image.block_count(spammass_graph::Orientation::Out)
                + image.block_count(spammass_graph::Orientation::In),
            image.encoded_bytes_read() as f64 / (1024.0 * 1024.0),
            if workers == 1 { "" } else { "s" }
        );
    } else {
        let opts = read_options(args)?;
        let (graph, load_report) = load_graph_with(Path::new(args.required("graph")?), &opts)?;
        require_hosts(graph.node_count(), "--graph")?;
        let core_load =
            load_core(Path::new(args.required("core")?), labels.as_ref(), graph.node_count())?;
        if let Some(w) = ingest_warning(load_report.as_ref()) {
            let _ = writeln!(warnings, "{w}");
        }
        if let Some(w) = core_load.warning() {
            let _ = writeln!(warnings, "{w}");
        }
        let config = EstimatorConfig::scaled(gamma).with_pagerank(pagerank_config);
        estimate = MassEstimator::new(config).estimate(&graph, &core_load.nodes)?;
        if let Some(state_path) = args.optional("state") {
            // Persist graph + core + both score vectors so `spammass update`
            // can warm-start from this run.
            let state = spammass_delta::StateDir::new(state_path);
            let generation = state.save(
                &graph,
                &core_load.nodes,
                &estimate.pagerank,
                &estimate.core_pagerank,
            )?;
            let _ = writeln!(
                warnings,
                "state saved to {} (generation {generation})",
                state.path().display()
            );
        }
        node_count = graph.node_count();
        core_len = core_load.nodes.len();
    }
    warnings.push_str(&health_lines(&estimate, labels.as_ref()));

    let nodes = || (0..node_count as u32).map(NodeId);
    if let Some(out_path) = args.optional("out") {
        let mut tsv =
            String::from("# node\thost\tscaled_p\tscaled_p_core\tscaled_abs_mass\trel_mass\n");
        for x in nodes() {
            let _ = writeln!(
                tsv,
                "{}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}",
                x.0,
                display_node(labels.as_ref(), x),
                estimate.scaled_pagerank(x),
                estimate.scaled_core_pagerank(x),
                estimate.scaled_absolute(x),
                estimate.relative_of(x),
            );
        }
        std::fs::write(out_path, tsv)?;
    }

    // Console summary: the highest relative masses among substantial hosts.
    let mut ranked: Vec<NodeId> = nodes().collect();
    // total_cmp keeps the ranking total even if a NaN slips into the
    // scores (it sorts first, where it is visible).
    ranked.sort_by(|&a, &b| {
        estimate.relative_of(b).total_cmp(&estimate.relative_of(a)).then(a.cmp(&b))
    });
    let mut out = warnings;
    let _ = writeln!(
        out,
        "core: {} hosts, gamma = {gamma}; coverage ||p'||/||p|| = {:.4}",
        core_len,
        estimate.coverage_ratio()
    );
    if let Some(diag) = &estimate.pagerank_diag {
        let _ = writeln!(out, "pagerank solve: {diag}");
    }
    let _ = writeln!(out, "core solve: {diag}", diag = estimate.core_diag);
    let _ =
        writeln!(out, "{:>10} {:>8}  host (top relative mass, scaled p >= 2)", "scaled p", "m~");
    for &x in ranked.iter().filter(|&&x| estimate.scaled_pagerank(x) >= 2.0).take(top) {
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
    use spammass_graph::{io, GraphBuilder};
    use std::fs;

    fn setup(test: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        // Star farm: 1..=5 -> 0; good host 6 -> 7 with 7 in core.
        let mut edges: Vec<(u32, u32)> = (1..=5).map(|i| (i, 0)).collect();
        edges.push((6, 7));
        edges.push((7, 6));
        let g = GraphBuilder::from_edges(8, &edges);
        let d = crate::test_dir(test);
        let gp = d.join("g.bin");
        fs::write(&gp, io::graph_to_bytes_v3(&g)).unwrap();
        let cp = d.join("core.txt");
        fs::write(&cp, "7\n").unwrap();
        (gp, cp)
    }

    #[test]
    fn estimates_and_writes_tsv() {
        let (gp, cp) = setup("estimate-writes-tsv");
        let out_path = gp.with_file_name("mass.tsv");
        let args = ParsedArgs::parse(
            &[
                "estimate",
                "--graph",
                gp.to_str().unwrap(),
                "--core",
                cp.to_str().unwrap(),
                "--out",
                out_path.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("core: 1 hosts"));
        // The default path solves both jump vectors in one batched run.
        assert!(report.contains("pagerank solve: batch"), "{report}");
        assert!(report.contains("core solve: batch"), "{report}");

        let tsv = fs::read_to_string(&out_path).unwrap();
        assert_eq!(tsv.lines().count(), 9); // header + 8 nodes
                                            // The farm target (node 0) carries relative mass ~1.
        let target_line = tsv.lines().find(|l| l.starts_with("0\t")).unwrap();
        let rel: f64 = target_line.rsplit('\t').next().unwrap().parse().unwrap();
        assert!(rel > 0.99, "target m~ = {rel}");
    }

    #[test]
    fn a_second_attempt_is_a_warning_naming_the_cap_it_needed() {
        // 6 ↔ 7 is a cycle that 5 feeds on one side, so the solve is a
        // real iteration (a bare symmetric cycle starts at its fixed
        // point); cap it one sweep short of what it needs.
        let mut edges: Vec<(u32, u32)> = (1..=5).map(|i| (i, 0)).collect();
        edges.extend([(5, 6), (6, 7), (7, 6)]);
        let g = GraphBuilder::from_edges(8, &edges);
        let estimate = |pagerank| {
            MassEstimator::new(EstimatorConfig::scaled(0.85).with_pagerank(pagerank))
                .estimate(&g, &[NodeId(7)])
                .unwrap()
        };
        let healthy = estimate(spammass_pagerank::PageRankConfig::default());
        assert!(!health_lines(&healthy, None).contains("degraded"));
        let needed = healthy.pagerank_diag.as_ref().unwrap().iterations;
        let tight = spammass_pagerank::PageRankConfig::default().max_iterations(needed - 1);
        let degraded = estimate(tight);
        let (lines, cap) = (health_lines(&degraded, None), degraded.core_diag.cap);
        assert!(cap >= needed);
        for run in ["pagerank", "core"] {
            let line = lines.lines().find(|l| l.contains(&format!("{run} run degraded")));
            let line = line.unwrap_or_else(|| panic!("no warning for the {run} run in {lines:?}"));
            assert!(line.ends_with(&format!("solved again with cap {cap})")), "{line}");
        }
    }

    #[test]
    fn duplicate_core_entries_are_reported() {
        let (gp, _) = setup("estimate-duplicate-core");
        let cp = gp.with_file_name("core_dup.txt");
        fs::write(&cp, "7\n7\n6\n").unwrap();
        let args = ParsedArgs::parse(
            &["estimate", "--graph", gp.to_str().unwrap(), "--core", cp.to_str().unwrap()]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("more than once"), "{report}");
        assert!(report.contains("core: 2 hosts"), "{report}");
    }

    #[test]
    fn streamed_estimate_matches_in_memory_tsv() {
        // Chain graph with a small farm; enough nodes to make the solve
        // nontrivial but still instant.
        let mut edges: Vec<(u32, u32)> = (0..200u32).map(|i| (i, (i + 1) % 200)).collect();
        edges.extend((201..220u32).map(|i| (i, 200)));
        let g = GraphBuilder::from_edges(220, &edges);
        let d = crate::test_dir("estimate-streamed-tsv");
        let v4 = d.join("g.v4");
        fs::write(&v4, spammass_graph::graph_to_bytes_v4(&g)).unwrap();
        let v3 = d.join("g.v3");
        fs::write(&v3, io::graph_to_bytes_v3(&g)).unwrap();
        let cp = d.join("core.txt");
        fs::write(&cp, "0\n50\n100\n").unwrap();

        let run_with = |graph: &std::path::Path, tsv: &std::path::Path, extra: &[&str]| {
            let mut argv = vec![
                "estimate",
                "--graph",
                graph.to_str().unwrap(),
                "--core",
                cp.to_str().unwrap(),
                "--out",
                tsv.to_str().unwrap(),
                "--threads",
                "1",
            ];
            argv.extend_from_slice(extra);
            let args =
                ParsedArgs::parse(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap();
            run(&args).unwrap()
        };
        let mem_tsv = d.join("mem.tsv");
        run_with(&v3, &mem_tsv, &[]);
        let streamed_tsv = d.join("streamed.tsv");
        let report = run_with(&v4, &streamed_tsv, &["--max-resident-mb", "8"]);
        assert!(report.contains("streamed solve:"), "{report}");
        assert!(report.contains("core: 3 hosts"), "{report}");
        assert_eq!(
            fs::read_to_string(&mem_tsv).unwrap(),
            fs::read_to_string(&streamed_tsv).unwrap(),
            "streamed and in-memory estimates must agree to TSV precision"
        );
    }

    #[test]
    fn streamed_estimate_rejects_incompatible_flags() {
        let (gp, cp) = setup("estimate-streamed-flags");
        let argv = [
            "estimate",
            "--graph",
            gp.to_str().unwrap(),
            "--core",
            cp.to_str().unwrap(),
            "--max-resident-mb",
            "4",
            "--state",
            "/tmp/st",
        ];
        let args =
            ParsedArgs::parse(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap();
        match run(&args) {
            Err(CliError::Usage(m)) => assert!(m.contains("resident v3 image"), "{m}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_gamma() {
        let (gp, cp) = setup("estimate-bad-gamma");
        let args = ParsedArgs::parse(
            &[
                "estimate",
                "--graph",
                gp.to_str().unwrap(),
                "--core",
                cp.to_str().unwrap(),
                "--gamma",
                "2.0",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn empty_graph_and_removed_flags_are_refused() {
        let (gp, cp) = setup("estimate-refusals");
        let empty = gp.with_file_name("empty.txt");
        fs::write(&empty, "").unwrap();
        let run_on = |graph: &std::path::Path, extra: &[&str]| {
            let mut v = vec!["estimate", "--graph", graph.to_str().unwrap()];
            v.extend_from_slice(&["--core", cp.to_str().unwrap()]);
            v.extend_from_slice(extra);
            run(&ParsedArgs::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap())
        };
        match run_on(&empty, &[]) {
            Err(CliError::Usage(m)) => assert!(m.contains("no hosts"), "{m}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
        for removed in [["--kernel", "scalar"], ["--batch", "false"], ["--order", "degree"]] {
            assert!(matches!(run_on(&gp, &removed), Err(CliError::Usage(_))), "{removed:?}");
        }
    }
}
