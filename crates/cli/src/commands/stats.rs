//! `spammass stats` — Section 4.1-style structural statistics of a graph.

use crate::args::ParsedArgs;
use crate::loading::{ingest_warning, load_graph_with, read_options};
use crate::CliError;
use spammass_graph::powerlaw::fit_exponent_mle_discrete;
use spammass_graph::stats::GraphStats;
use std::fmt::Write as _;
use std::path::Path;

/// Runs the subcommand.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&["graph", "lenient", "trace", "metrics-out"])?;
    let opts = read_options(args)?;
    let (graph, load_report) = load_graph_with(Path::new(args.required("graph")?), &opts)?;
    let s = GraphStats::compute(&graph);

    let mut out = String::new();
    if let Some(w) = ingest_warning(load_report.as_ref()) {
        let _ = writeln!(out, "{w}");
    }
    let _ = writeln!(out, "nodes:            {}", s.nodes);
    let _ = writeln!(out, "edges:            {}", s.edges);
    let _ = writeln!(out, "edges per node:   {:.2}", s.mean_degree);
    let _ = writeln!(
        out,
        "no inlinks:       {} ({:.1}%)",
        s.no_inlinks,
        s.no_inlinks_fraction() * 100.0
    );
    let _ = writeln!(
        out,
        "no outlinks:      {} ({:.1}%)",
        s.no_outlinks,
        s.no_outlinks_fraction() * 100.0
    );
    let _ =
        writeln!(out, "isolated:         {} ({:.1}%)", s.isolated, s.isolated_fraction() * 100.0);
    let _ = writeln!(out, "max in-degree:    {}", s.max_in_degree);
    let _ = writeln!(out, "max out-degree:   {}", s.max_out_degree);
    if let Some(fit) =
        fit_exponent_mle_discrete(graph.nodes().map(|x| graph.in_degree(x) as f64), 2.0)
    {
        let _ = writeln!(
            out,
            "in-degree power law: alpha = {:.2} ({} tail nodes, d >= 2)",
            fit.alpha, fit.tail_samples
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spammass_graph::{io, GraphBuilder};

    #[test]
    fn reports_basic_statistics() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (1, 2)]);
        let p = crate::test_dir("stats-basic").join("g.bin");
        std::fs::write(&p, io::graph_to_bytes_v3(&g)).unwrap();
        let args = ParsedArgs::parse(&[
            "stats".to_string(),
            "--graph".to_string(),
            p.to_str().unwrap().to_string(),
        ])
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("nodes:            4"));
        assert!(out.contains("edges:            3"));
        assert!(out.contains("isolated:         1"));
    }

    #[test]
    fn lenient_flag_skips_bad_lines_with_warning() {
        let p = crate::test_dir("stats-lenient").join("messy.txt");
        std::fs::write(&p, "0 1\ngarbage\n1 0\n").unwrap();
        let argv: Vec<String> = ["stats", "--graph", p.to_str().unwrap(), "--lenient", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = run(&ParsedArgs::parse(&argv).unwrap()).unwrap();
        assert!(out.contains("warning:"), "{out}");
        assert!(out.contains("edges:            2"), "{out}");
        // Strict run fails on the same file.
        let strict: Vec<String> =
            ["stats", "--graph", p.to_str().unwrap()].iter().map(|s| s.to_string()).collect();
        assert!(run(&ParsedArgs::parse(&strict).unwrap()).is_err());
    }

    #[test]
    fn missing_graph_flag_is_usage_error() {
        let args = ParsedArgs::parse(&["stats".to_string()]).unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }
}
